"""Separability and entanglement-class decision procedures.

Two-mode mixed states are separable exactly when the negativity vanishes,
which for parity-even 4x4 matrices is also exactly the absence of off-diagonal
elements; both tests are run and must agree.  Three-mode pure states fall into
six classes determined by the positivity pattern of the three one-vs-rest
negativities and the sector product ``J_ABC``.  Three-mode mixed states are
fully separable iff all three one-vs-rest negativities vanish and biseparable
across one party iff exactly that negativity vanishes.

Near-threshold witnesses are flagged ``marginal`` rather than silently binned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ClassificationError, StateValidationError
from .fock import FLAG_TOL, FockOperator, SubsystemSpec, _check_nonnegative, as_spec
from .measures import _is_pure, _purity, j_abc, negativity, one_vs_rest_negativities
from .states import PureCoeffs, _density, pure_vector_from_coeffs, subsystem_parity_commutator_norm

#: Witnesses below this count as zero; configurable per call.
DEFAULT_ZERO_THRESHOLD = 1e-9

#: Width (in decades around the threshold) of the marginal reporting band.
_MARGINAL_BAND = 10.0


@dataclass(frozen=True)
class ClassLabel:
    """Classification verdict with the witnesses and threshold that produced it."""

    label: str
    witnesses: Mapping[str, float]
    threshold: float
    marginal: bool = field(default=False)

    def __post_init__(self):
        object.__setattr__(self, "witnesses", dict(self.witnesses))

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "witnesses": dict(self.witnesses),
            "threshold": self.threshold,
            "marginal": self.marginal,
        }


class ParityType(NamedTuple):
    """Subsystem parity classification and the commutator norm behind it."""

    kind: str  # "type_I" | "type_II"
    commutator_norm: float


def _is_marginal(value: float, threshold: float) -> bool:
    return threshold / _MARGINAL_BAND < value < threshold * _MARGINAL_BAND


def subsystem_parity_type(
    rho: FockOperator, spec: SubsystemSpec, threshold: float = FLAG_TOL
) -> ParityType:
    """Type I iff the state commutes with the spec's parity operator."""
    norm = subsystem_parity_commutator_norm(rho, as_spec(spec))
    _check_nonnegative("threshold", threshold)
    return ParityType("type_I" if norm <= threshold else "type_II", norm)


def off_diagonal_norm(rho: FockOperator) -> float:
    """Largest off-diagonal matrix element in magnitude."""
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    return float(np.abs(off).max())


def two_mode_separable(
    rho: FockOperator,
    threshold: float = DEFAULT_ZERO_THRESHOLD,
    structural_threshold: float | None = None,
    tol: float = FLAG_TOL,
) -> ClassLabel:
    """Separability verdict for a two-mode density matrix.

    Cross-checks the negativity test against the structural criterion (a
    parity-even two-mode state is separable exactly when it is diagonal).  Near
    the boundary the negativity grows quadratically in the off-diagonal size,
    so the structural threshold defaults to ``sqrt(threshold)``; a disagreement
    between the two tests raises :class:`ClassificationError`.
    """
    if rho.layout.num_modes != 2:
        raise StateValidationError("two_mode_separable expects a two-mode state")
    _check_nonnegative("threshold", threshold)
    rho.require_density_matrix(tol)
    if structural_threshold is None:
        structural_threshold = float(np.sqrt(threshold))
    _check_nonnegative("threshold", structural_threshold)
    neg = negativity(rho, SubsystemSpec((1,)), "fermionic", tol)
    off = off_diagonal_norm(rho)
    neg_separable = neg <= threshold
    struct_separable = off <= structural_threshold
    if neg_separable != struct_separable:
        raise ClassificationError(
            f"negativity test ({neg:.3e} vs {threshold:.1e}) and structural test "
            f"({off:.3e} vs {structural_threshold:.1e}) disagree"
        )
    return ClassLabel(
        label="separable" if neg_separable else "inseparable",
        witnesses={"negativity": neg, "off_diagonal_norm": off},
        threshold=threshold,
        marginal=_is_marginal(neg, threshold),
    )


def _tri_witnesses(rho: FockOperator, tol: float) -> dict[str, float]:
    negs = one_vs_rest_negativities(rho, "fermionic", tol)
    return {
        "negativity_A": negs["A"],
        "negativity_B": negs["B"],
        "negativity_C": negs["C"],
        "j_abc": j_abc(rho, tol=tol),
    }


def _pure3_verdict(witnesses: Mapping[str, float], threshold: float) -> ClassLabel:
    """Class of a three-mode pure state from its ``negativity_A/B/C`` and ``j_abc``.

    Takes those four entries of :func:`_tri_witnesses` or of a fermionic
    ``tripartite_report``; other entries are ignored.
    """
    keys = ("negativity_A", "negativity_B", "negativity_C", "j_abc")
    wit = {key: witnesses[key] for key in keys}
    zero_a, zero_b, zero_c, zero_j = (v <= threshold for v in wit.values())
    zeros = sum((zero_a, zero_b, zero_c))
    if zeros >= 2:
        # Two vanishing one-vs-rest cuts force the third; escalate.
        label = "A-B-C"
    elif zeros == 1:
        label = "A-BC" if zero_a else ("B-AC" if zero_b else "C-AB")
    else:
        label = "W" if zero_j else "GHZ"
    return ClassLabel(
        label=label,
        witnesses=wit,
        threshold=threshold,
        marginal=any(_is_marginal(v, threshold) for v in wit.values()),
    )


def pure3_class(
    state: PureCoeffs | FockOperator,
    threshold: float = DEFAULT_ZERO_THRESHOLD,
    tol: float = FLAG_TOL,
) -> ClassLabel:
    """Class of a three-mode pure state per the witness positivity pattern.

    Accepts sector amplitudes or a pure density matrix; mixed input is
    rejected.
    """
    _check_nonnegative("threshold", threshold)
    if isinstance(state, PureCoeffs):
        if state.num_modes != 3:
            raise StateValidationError("pure3_class expects three-mode amplitudes")
        vec, layout = pure_vector_from_coeffs(state)
        rho = _density(layout, vec)
    else:
        rho = state
        if rho.layout.num_modes != 3:
            raise StateValidationError("pure3_class expects a three-mode state")
        rho.require_density_matrix(tol)
        if not _is_pure(rho):
            raise StateValidationError(f"state is mixed (purity {_purity(rho):.6f})")
    return _pure3_verdict(_tri_witnesses(rho, tol), threshold)


def mixed3_classify(
    rho: FockOperator,
    threshold: float = DEFAULT_ZERO_THRESHOLD,
    tol: float = FLAG_TOL,
) -> ClassLabel:
    """Separability class of a three-mode density matrix.

    Fully separable iff all three one-vs-rest negativities vanish; biseparable
    across a party iff exactly that negativity vanishes; inseparable otherwise.
    Two simultaneous zeros imply the third and escalate to fully separable.
    """
    if rho.layout.num_modes != 3:
        raise StateValidationError("mixed3_classify expects a three-mode state")
    _check_nonnegative("threshold", threshold)
    rho.require_density_matrix(tol)
    wit = _tri_witnesses(rho, tol)
    values = [wit["negativity_A"], wit["negativity_B"], wit["negativity_C"]]
    zero = [v <= threshold for v in values]
    count = sum(zero)
    if count >= 2:
        label = "fully_separable"
    elif count == 1:
        party = "ABC"[zero.index(True)]
        label = f"biseparable({party})"
    else:
        label = "inseparable"
    return ClassLabel(
        label=label,
        witnesses=wit,
        threshold=threshold,
        marginal=(count == 2) or any(_is_marginal(v, threshold) for v in values),
    )
