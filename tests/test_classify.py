import numpy as np
import pytest

from conftest import random_biseparable
from fneg.errors import StateValidationError
from fneg.fock import FockOperator, ModeLayout, SubsystemSpec
from fneg.classify import (
    mixed3_classify,
    off_diagonal_norm,
    pure3_class,
    subsystem_parity_type,
    two_mode_separable,
)
from fneg.measures import negativity
from fneg.states import (
    PureCoeffs,
    biseparable_example,
    canonical_state,
    random_density,
    random_pure,
    random_separable,
)

LAY2 = ModeLayout.bipartite(1, 1)
LAY3 = ModeLayout.tripartite()


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -1e-9])
@pytest.mark.parametrize("classify,state", [
    (two_mode_separable, "majorana_dimer"), (pure3_class, "ghz"), (mixed3_classify, "ghz"),
], ids=["two_mode", "pure3", "mixed3"])
def test_bad_threshold_is_rejected(classify, state, threshold):
    # two_mode_separable(threshold=nan) returned "inseparable"
    with pytest.raises(ValueError, match="threshold must be a finite number >= 0"):
        classify(canonical_state(state), threshold=threshold)


def test_bad_structural_threshold_is_rejected():
    with pytest.raises(ValueError, match="threshold must be a finite number >= 0"):
        two_mode_separable(canonical_state("majorana_dimer"), structural_threshold=np.nan)


def test_bad_parity_type_threshold_is_rejected():
    # subsystem_parity_type(threshold=nan) returned type_II
    with pytest.raises(ValueError, match="threshold must be a finite number >= 0"):
        subsystem_parity_type(canonical_state("ghz"), SubsystemSpec((1,)), threshold=np.nan)


class TestTwoModeSeparable:
    def test_maximally_mixed_is_separable(self):
        rho = FockOperator(LAY2, np.eye(4, dtype=complex) / 4)
        label = two_mode_separable(rho)
        assert label.label == "separable"
        assert label.witnesses["negativity"] <= 1e-12

    def test_dimer_is_inseparable(self):
        label = two_mode_separable(canonical_state("majorana_dimer"))
        assert label.label == "inseparable"
        assert abs(label.witnesses["negativity"] - (np.sqrt(2) - 1) / 2) <= 1e-12

    @pytest.mark.parametrize("p", [0.05, 1 / 3, 0.8, 1.0])
    def test_werner_inseparable_for_positive_p(self, p):
        assert two_mode_separable(canonical_state("werner", p=p)).label == "inseparable"

    def test_random_separable_samples(self, rng):
        for _ in range(10):
            rho = random_separable(LAY2, SubsystemSpec((1,)), 3, rng)
            assert two_mode_separable(rho).label == "separable"

    def test_biconditional_smoke(self, rng):
        # both tests agree on a quick mixed population; 1e4 runs in acceptance
        for k in range(300):
            if k % 4 == 0:
                rho = FockOperator(LAY2, np.diag(rng.dirichlet(np.ones(4))).astype(complex))
            else:
                rho = random_density(LAY2, rng)
            label = two_mode_separable(rho)
            sep = label.label == "separable"
            assert sep == (off_diagonal_norm(rho) <= np.sqrt(1e-9))

    def test_rejects_wrong_size(self):
        with pytest.raises(StateValidationError):
            two_mode_separable(canonical_state("ghz"))


class TestPure3Class:
    @pytest.mark.parametrize(
        "lambdas,expected",
        [
            ((1.0, 0.0, 0.0, 0.0), "A-B-C"),
            ((0.0, 1.0, 0.0, 0.0), "A-B-C"),
            ((1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 0.0), "A-BC"),
            ((1 / np.sqrt(2), 0.0, 0.0, 1 / np.sqrt(2)), "B-AC"),
            ((1 / np.sqrt(2), 1 / np.sqrt(2), 0.0, 0.0), "C-AB"),
            ((0.0, 0.0, 1 / np.sqrt(2), 1 / np.sqrt(2)), "C-AB"),
            ((0.6, 0.0, 0.64, 0.48), "W"),
            ((0.5, 0.5, 0.5, 0.5), "GHZ"),
        ],
    )
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_lambda_patterns(self, lambdas, expected, parity):
        label = pure3_class(PureCoeffs(lambdas, parity))
        assert label.label == expected

    def test_w_and_ghz_states(self):
        assert pure3_class(canonical_state("w")).label == "W"
        assert pure3_class(canonical_state("ghz")).label == "GHZ"

    def test_density_matrix_input(self, rng):
        rho = random_pure(LAY3, "odd", rng)
        label = pure3_class(rho)
        assert label.label in {"A-B-C", "A-BC", "B-AC", "C-AB", "W", "GHZ"}

    def test_rejects_mixed(self):
        with pytest.raises(StateValidationError):
            pure3_class(canonical_state("majorana_triple"))

    def test_exhaustive_single_label(self, rng):
        # every random pure state receives exactly one classification label
        seen = set()
        for _ in range(50):
            sector = "even" if rng.integers(2) else "odd"
            label = pure3_class(random_pure(LAY3, sector, rng))
            assert label.label in {"A-B-C", "A-BC", "B-AC", "C-AB", "W", "GHZ"}
            seen.add(label.label)
        assert "GHZ" in seen  # generic states carry all four witnesses

    def test_witnesses_recorded(self):
        label = pure3_class(canonical_state("ghz"))
        assert set(label.witnesses) == {
            "negativity_A", "negativity_B", "negativity_C", "j_abc"
        }
        assert label.threshold == 1e-9


class TestMixed3Classify:
    def test_fully_separable_samples(self, rng):
        for _ in range(10):
            rho = random_separable(
                LAY3,
                [SubsystemSpec((1,)), SubsystemSpec((2,)), SubsystemSpec((3,))],
                3,
                rng,
            )
            assert mixed3_classify(rho).label == "fully_separable"

    def test_biseparable_samples(self, rng):
        for party, spec in (("A", (1,)), ("B", (2,)), ("C", (3,))):
            rho = random_biseparable(LAY3, SubsystemSpec(spec), 3, rng)
            assert mixed3_classify(rho).label == f"biseparable({party})"

    def test_biseparable_mixture_example(self):
        for alpha in (0.8, 0.3 + 0.4j):
            rho = biseparable_example(alpha)
            label = mixed3_classify(rho)
            assert label.label == "biseparable(A)"
            from fneg.ptranspose import partial_trace

            reduced = partial_trace(rho, SubsystemSpec((2, 3)))
            assert abs(negativity(reduced, reduced.layout.spec("B"))) <= 1e-10

    def test_ghz_inseparable(self):
        assert mixed3_classify(canonical_state("ghz")).label == "inseparable"

    def test_random_states_inseparable(self, rng):
        assert mixed3_classify(random_density(LAY3, rng)).label == "inseparable"


class TestSubsystemParityType:
    def test_diagonal_is_type_one(self, rng):
        rho = FockOperator(LAY2, np.diag(rng.dirichlet(np.ones(4))).astype(complex))
        ptype = subsystem_parity_type(rho, SubsystemSpec((1,)))
        assert ptype.kind == "type_I"
        assert ptype.commutator_norm == 0.0

    def test_dimer_is_type_two(self):
        ptype = subsystem_parity_type(canonical_state("majorana_dimer"), SubsystemSpec((1,)))
        assert ptype.kind == "type_II"
        assert ptype.commutator_norm == pytest.approx(0.5)

    def test_type_one_flavors_agree(self, rng):
        spec = SubsystemSpec((1,))
        for _ in range(20):
            rho = random_density(LAY2, rng, constraint="type_I", spec=spec)
            diff = abs(
                negativity(rho, spec, "fermionic") - negativity(rho, spec, "bosonic")
            )
            assert diff <= 1e-10

    def test_type_one_flavors_agree_three_modes(self, rng):
        spec = SubsystemSpec((1, 2))
        for _ in range(10):
            rho = random_density(LAY3, rng, constraint="type_I", spec=spec)
            diff = abs(
                negativity(rho, spec, "fermionic") - negativity(rho, spec, "bosonic")
            )
            assert diff <= 1e-10


class TestWitnessZeroPatterns:
    def test_two_zero_witnesses_imply_third(self, rng):
        # fully separable constructions: all three one-vs-rest cuts vanish
        for _ in range(10):
            rho = random_separable(
                LAY3,
                [SubsystemSpec((1,)), SubsystemSpec((2,)), SubsystemSpec((3,))],
                2,
                rng,
            )
            negs = [negativity(rho, LAY3.spec(lab)) for lab in "ABC"]
            assert sum(n <= 1e-10 for n in negs) == 3

    def test_biseparable_has_exactly_one_zero(self, rng):
        rho = random_biseparable(LAY3, SubsystemSpec((1,)), 3, rng)
        negs = [negativity(rho, LAY3.spec(lab)) for lab in "ABC"]
        assert negs[0] <= 1e-10
        assert negs[1] > 1e-6 and negs[2] > 1e-6
