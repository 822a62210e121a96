"""Entanglement measures: trace norm, negativities, moments, entropies,
mutual information, and the four tripartite quantities.

Bipartite measures take a density matrix together with the subsystem spec that
is transposed; ``flavor`` selects the fermionic or the bosonic partial
transpose.  Tripartite measures assume a layout with the three labels
``A``, ``B``, ``C`` and use the one-vs-rest and pairwise-reduced negativities.

Conventions: ``N = (|rho^{T_A}|_1 - 1)/2`` and ``E = log |rho^{T_A}|_1`` with the
natural logarithm, so ``E = log(2 N + 1)`` identically.  Renyi entropies use the
logarithmic form ``S_n = log(Tr rho^n)/(1 - n)``, which is the one consistent
with the half-Renyi identity ``E = S_{1/2}(rho_A)`` for pure states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import StateValidationError
from .fock import (
    _BLOCK_MIN_MODES,
    FLAG_TOL,
    FockOperator,
    SubsystemSpec,
    _density_verdicts,
    _exact,
    _gather_blocks,
    _sign_vector,
    as_spec,
)
from .ptranspose import (
    _check_flavor,
    _resolve_spec,
    _signed_gather,
    parity_project,
    partial_trace,
    partial_transpose,
)
from .states import _fix_phase

#: Singular values below this are treated as exact zeros of rank-deficient states.
SINGULAR_FLOOR = 1e-13

@dataclass(frozen=True)
class MeasureReport:
    """Named scalar results with the tolerance and transpose flavor used."""

    entries: Mapping[str, float]
    tolerance: float
    transpose_flavor: str

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))
        ent = self.entries
        if "negativity" in ent and ent["negativity"] < -self.tolerance:
            raise StateValidationError("negativity below -tolerance")
        if "negativity" in ent and "log_negativity" in ent:
            expected = float(np.log(2.0 * max(ent["negativity"], 0.0) + 1.0))
            if abs(ent["log_negativity"] - expected) > 10 * self.tolerance + 1e-12:
                raise StateValidationError("log_negativity inconsistent with negativity")

    def __getitem__(self, key: str) -> float:
        return self.entries[key]


def singular_values(op: FockOperator | np.ndarray) -> np.ndarray:
    """Singular values ``sqrt(eig(A A^+))`` in descending order.

    Never evaluated by squaring into ``A A^+``: that inflates the absolute
    error of vanishing singular values to sqrt(machine epsilon), which would
    swamp the 1e-10 zero tests on rank-deficient states.  A
    :class:`FockOperator` with exact blocks is solved by :func:`_spectra` on
    its two parity blocks; any other operator and a plain array take the
    dense SVD.
    """
    if not isinstance(op, FockOperator):
        return np.linalg.svd(np.asarray(op), compute_uv=False)
    if not op._exact_blocks():
        return np.linalg.svd(op.matrix, compute_uv=False)
    return _spectra(op.matrix[None], op.layout.num_modes, [True], [op._hermitian_residual()])[0]


def _spectra(t: np.ndarray, n: int, exact, herm) -> np.ndarray:
    """Singular values of each matrix of a ``(k, d, d)`` stack on ``n`` modes, each row descending.

    Both transposes keep global fermion parity, so ``rho^{T_A}`` of a
    parity-even state is block-diagonal in the global-parity basis.  The
    members marked ``exact`` have exact blocks (:func:`fock._exact`).  Their
    two blocks are gathered once and solved in one batched call, about a
    quarter of the work of the d x d solve, and the values are merged.
    ``herm`` holds their Hermiticity residuals, read only there: a residual of
    0.0 takes ``|eigvalsh|`` of the blocks, at about half the cost of the SVD,
    any other the block SVD.  Both tests are exact, not tolerance-based:
    dropping off-block entries up to a tolerance could shift a trace norm by
    about ``d * tol``, and ``eigvalsh`` reads one triangle, so it would drop an
    anti-Hermitian part of any size.  The other members take the dense SVD.
    Every kernel acts member by member, and a uniform stack is solved without
    a copy.
    """
    exact = np.asarray(exact)
    if not exact.any():
        return np.linalg.svd(t, compute_uv=False)
    values = np.empty(t.shape[:2])
    if not exact.all():
        values[~exact] = np.linalg.svd(t[~exact], compute_uv=False)
    blocks = _gather_blocks(t if exact.all() else t[exact], n)
    hermitian = np.asarray(herm)[exact] == 0.0
    for chosen, spectrum in ((hermitian, lambda b: np.abs(np.linalg.eigvalsh(b))),
                             (~hermitian, lambda b: np.linalg.svd(b, compute_uv=False))):
        if chosen.any():
            found = spectrum(blocks if chosen.all() else blocks[chosen])
            values[np.flatnonzero(exact)[chosen]] = np.sort(found.reshape(len(found), -1))[:, ::-1]
    return values


def trace_norm(op: FockOperator | np.ndarray) -> float:
    """Trace norm ``Tr sqrt(A A^+)`` (sum of singular values)."""
    return float(singular_values(op).sum())


def _pt_norm(rho: FockOperator, spec, flavor: str, tol: float) -> float:
    """Validate ``rho`` and return ``|rho^{T_A}|_1``, solved once per flavor and target set.

    Every call validates: the flavor, ``rho`` as a density matrix at ``tol``
    (parity-even for the fermionic flavor) and the target, which the fermionic
    flavor needs proper.  Below :data:`_BLOCK_MIN_MODES` the transpose is then
    taken and solved densely on every call.  From there the norm is kept in
    ``rho._norms`` as a float, keyed by the flavor and the target mask, so
    ``negativity``, ``log_negativity`` and ``bipartite_report`` share one solve
    and ``(1, 3)`` and ``(3, 1)`` one entry.  A target and its complement do
    not: their norms agree by theorem, and each is computed, so that the one
    checks the other.  A miss runs :func:`_pt_norms` on ``rho`` alone with
    ``rho``'s residuals, so the transpose is not scanned again.
    """
    _check_flavor(flavor)
    fermionic = flavor == "fermionic"
    rho.require_density_matrix(tol, require_parity=fermionic)
    if fermionic:
        spec = _resolve_spec(rho, spec)
    else:
        spec = as_spec(spec)
        spec.validate(rho.layout)
    n = rho.layout.num_modes
    if n < _BLOCK_MIN_MODES:
        return trace_norm(partial_transpose(rho, spec, flavor))
    key = (flavor, spec.mask())
    if key not in rho._norms:
        residuals = [[rho._parity_leak()], [rho._hermitian_residual()]]
        norms = _pt_norms(rho.matrix[None], n, spec, fermionic, residuals=residuals)
        rho._norms[key] = float(norms[0])
    return rho._norms[key]


def _pt_norms(
    stack: np.ndarray, n: int, spec: SubsystemSpec, fermionic: bool = True, residuals=None
) -> np.ndarray | None:
    """``|rho^{T_A}|_1`` of each state of a ``(k, d, d)`` stack on ``n`` modes, as in ``_pt_norm``.

    ``residuals``, each member's parity leak and Hermiticity residual, mark a
    stack its caller has validated.  Without them the stack is checked as
    ``_pt_norm`` checks a state for the fermionic flavor: a proper target, then
    :func:`fock._density_verdicts`; ``None`` if any member fails.  One
    :func:`_signed_gather` transposes the stack; below :data:`_BLOCK_MIN_MODES`
    modes each member takes the dense SVD.  From there the fermionic transpose
    is solved through its Hermitian twin ``T = rho^{T_A} (-1)^{F_A}`` (for
    parity-even Hermitian ``rho``, ``(rho^{T_A})^+ = (-1)^{F_A} rho^{T_A}
    (-1)^{F_A}``; the unitary sign keeps the singular values).  The column sign
    is applied in place: no second array, and no sign flip of exact zeros, as
    folding it into ``_SIGN_PHASE`` would make, on which ``eigvalsh`` can round
    differently.  Both transposes keep ``p(row) + p(col)`` and map ``rho``'s
    mirror pairs onto mirror pairs times exact ``+-1`` and ``+-i``, so they have
    ``rho``'s leak and residual, and :func:`_spectra` solves each member as
    :func:`singular_values` would.  Values are summed as :func:`trace_norm`
    sums them, so each norm equals ``negativity``'s bit for bit.
    """
    if residuals is None:
        if fermionic and not set(spec.target_modes) < set(range(1, n + 1)):
            return None
        verdicts, *residuals = _density_verdicts(stack, n, FLAG_TOL)
        if not verdicts.all():
            return None
    t = _signed_gather(stack, n, spec, fermionic)
    if fermionic and n >= _BLOCK_MIN_MODES:
        t *= _sign_vector(n, spec.mask())
    leak, herm = np.asarray(residuals)
    return _spectra(t, n, _exact(leak, n), herm).sum(axis=-1)


def negativity(
    rho: FockOperator, spec: SubsystemSpec, flavor: str = "fermionic", tol: float = FLAG_TOL
) -> float:
    """Entanglement negativity ``(|rho^{T_A}|_1 - 1)/2`` for the chosen flavor."""
    return (_pt_norm(rho, spec, flavor, tol) - 1.0) / 2.0


def log_negativity(
    rho: FockOperator, spec: SubsystemSpec, flavor: str = "fermionic", tol: float = FLAG_TOL
) -> float:
    """Logarithmic negativity ``log |rho^{T_A}|_1``."""
    return float(np.log(_pt_norm(rho, spec, flavor, tol)))


def bipartite_report(
    rho: FockOperator, spec: SubsystemSpec, flavor: str = "fermionic", tol: float = FLAG_TOL
) -> MeasureReport:
    """Negativity and logarithmic negativity in one report."""
    norm = _pt_norm(rho, spec, flavor, tol)
    return MeasureReport(
        {"negativity": (norm - 1.0) / 2.0, "log_negativity": float(np.log(norm))},
        tolerance=tol,
        transpose_flavor=flavor,
    )


def pt_moment(
    rho: FockOperator, spec: SubsystemSpec, n: int, flavor: str = "fermionic",
    tol: float = FLAG_TOL,
) -> float:
    """Moment ``E_n = log Tr(rho^{T_A} rho^{T_A +} ...)`` with ``n`` alternating factors.

    Even ``n`` ends on the adjoint factor, odd ``n`` on the plain transpose.
    """
    if n < 1:
        raise ValueError("moment order n must be a positive integer")
    _check_flavor(flavor)
    rho.require_density_matrix(tol, require_parity=(flavor == "fermionic"))
    t = partial_transpose(rho, as_spec(spec), flavor).matrix
    tdag = t.conj().T
    prod = np.eye(t.shape[0], dtype=complex)
    for i in range(n):
        prod = prod @ (t if i % 2 == 0 else tdag)
    val = complex(np.trace(prod))
    if abs(val.imag) > 1e-9:
        raise StateValidationError(f"moment trace has non-real value {val}")
    return float(np.log(val.real))


def entropy(rho: FockOperator, order="vN", tol: float = FLAG_TOL) -> float:
    """Von Neumann (``order='vN'``) or Renyi entropy ``log(Tr rho^n)/(1-n)``."""
    rho.require_density_matrix(tol, require_parity=False)
    evals = np.clip(np.linalg.eigvalsh(rho._blocks_or_matrix()), 0.0, None)
    if order == "vN":
        nz = evals[evals > SINGULAR_FLOOR]
        return float(-(nz * np.log(nz)).sum())
    n = float(order)
    if not np.isfinite(n):
        raise ValueError(f"Renyi order must be finite, got {order!r}")
    if n <= 0:
        raise ValueError("Renyi order must be positive")
    if n == 1.0:
        raise ValueError("Renyi order 1 is the von Neumann limit; pass order='vN'")
    if n < 1.0:
        evals = evals[evals > SINGULAR_FLOOR]
    return float(np.log((evals**n).sum()) / (1.0 - n))


def mutual_information(
    rho: FockOperator, spec: SubsystemSpec, order="vN", tol: float = FLAG_TOL
) -> float:
    """Mutual information ``S(rho_A) + S(rho_B) - S(rho)`` across spec vs complement."""
    spec = as_spec(spec)
    spec.validate(rho.layout)
    rho_a = partial_trace(rho, spec)
    rho_b = partial_trace(rho, spec.complement(rho.layout))
    return entropy(rho_a, order, tol) + entropy(rho_b, order, tol) - entropy(rho, order, tol)


# -- tripartite machinery ---------------------------------------------------------


def _tri_specs(rho: FockOperator) -> dict[str, SubsystemSpec]:
    layout = rho.layout
    if set(layout.subsystems) != {"A", "B", "C"}:
        raise StateValidationError(
            f"tripartite measures need labels A, B, C; layout has {layout.subsystems}"
        )
    return {lab: layout.spec(lab) for lab in ("A", "B", "C")}


def one_vs_rest_negativities(
    rho: FockOperator, flavor: str = "fermionic", tol: float = FLAG_TOL
) -> dict[str, float]:
    """``{party: N_{party(rest)}}`` for the three one-vs-rest bipartitions."""
    specs = _tri_specs(rho)
    return {lab: negativity(rho, spec, flavor, tol) for lab, spec in specs.items()}


def pairwise_negativity(
    rho: FockOperator, first: str, second: str, flavor: str = "fermionic",
    tol: float = FLAG_TOL,
) -> float:
    """Negativity of the reduced two-party state, transposing the first party."""
    specs = _tri_specs(rho)
    keep = SubsystemSpec(specs[first].target_modes + specs[second].target_modes)
    reduced = partial_trace(rho, keep)
    return negativity(reduced, reduced.layout.spec(first), flavor, tol)


@dataclass(frozen=True)
class SectorNegativities:
    """Even/odd projected reduced negativities entering ``J_ABC``."""

    even: float
    odd: float
    even_weight: float
    odd_weight: float
    degenerate_sector: bool = field(default=False)

    @property
    def product(self) -> float:
        return self.even * self.odd


def j_abc_details(
    rho: FockOperator,
    pair: tuple[str, str] = ("A", "B"),
    third: str = "C",
    flavor: str = "fermionic",
    tol: float = FLAG_TOL,
) -> SectorNegativities:
    """Projected-sector negativity pair for ``J = N_{pair,e} N_{pair,o}``.

    The third party is projected onto its even/odd fermion-parity sector, the
    result is traced down to the pair, and the negativity is taken transposing
    the first member of the pair.  An empty sector contributes negativity zero
    and raises the ``degenerate_sector`` flag.
    """
    specs = _tri_specs(rho)
    keep = SubsystemSpec(specs[pair[0]].target_modes + specs[pair[1]].target_modes)
    values = {}
    weights = {}
    degenerate = False
    for sector in ("even", "odd"):
        proj = parity_project(rho, specs[third], sector, tol)
        weights[sector] = proj.weight
        if proj.state is None:
            values[sector] = 0.0
            degenerate = True
            continue
        reduced = partial_trace(proj.state, keep)
        values[sector] = negativity(reduced, reduced.layout.spec(pair[0]), flavor, tol)
    return SectorNegativities(
        even=values["even"],
        odd=values["odd"],
        even_weight=weights["even"],
        odd_weight=weights["odd"],
        degenerate_sector=degenerate,
    )


def j_abc(
    rho: FockOperator,
    pair: tuple[str, str] = ("A", "B"),
    third: str = "C",
    flavor: str = "fermionic",
    tol: float = FLAG_TOL,
) -> float:
    """Product of the even- and odd-sector projected reduced negativities."""
    return j_abc_details(rho, pair, third, flavor, tol).product


def cayley_hdet(a: np.ndarray) -> complex:
    """Cayley hyperdeterminant of a 2x2x2 coefficient tensor."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2, 2):
        raise ValueError(f"expected a 2x2x2 tensor, got shape {a.shape}")
    p1 = a[0, 0, 0] * a[1, 1, 1]
    p2 = a[0, 0, 1] * a[1, 1, 0]
    p3 = a[0, 1, 0] * a[1, 0, 1]
    p4 = a[0, 1, 1] * a[1, 0, 0]
    squares = p1 * p1 + p2 * p2 + p3 * p3 + p4 * p4
    cross = p1 * p2 + p1 * p3 + p1 * p4 + p2 * p3 + p2 * p4 + p3 * p4
    quartic = (
        a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
        + a[1, 1, 1] * a[1, 0, 0] * a[0, 1, 0] * a[0, 0, 1]
    )
    return complex(squares - 2.0 * cross + 4.0 * quartic)


def amplitude_tensor(vec: np.ndarray) -> np.ndarray:
    """Occupation-basis amplitudes of a 3-mode pure state as ``a[n1, n2, n3]``."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (8,):
        raise ValueError("expected a state vector on three modes (length 8)")
    return vec.reshape(2, 2, 2).transpose().copy()  # bit j-1 of the index is n_j


def pure_state_vector(rho: FockOperator, tol: float = 1e-8) -> np.ndarray:
    """Extract the state vector of a pure density matrix, phase-fixed."""
    evals, vecs = np.linalg.eigh(rho.matrix)
    if not abs(evals[-1] - 1.0) <= tol:  # NaN fails
        raise StateValidationError("operator is not a pure-state density matrix")
    return _fix_phase(vecs[:, -1])


def three_tangle(state: FockOperator | np.ndarray, tol: float = 1e-8) -> float:
    """Three-tangle ``|HDet A|`` of a pure three-mode state.

    Accepts a pure density matrix or a state vector; for fermionic parity
    eigenstates the value equals ``4 |l0 l1 l2 l3|``.
    """
    if isinstance(state, FockOperator):
        vec = pure_state_vector(state, tol)
    else:
        vec = np.asarray(state, dtype=complex)
        norm = np.linalg.norm(vec)
        if not abs(norm - 1.0) <= tol:  # NaN fails
            raise StateValidationError("state vector is not normalized")
    return float(abs(cayley_hdet(amplitude_tensor(vec))))


#: Largest ``|Tr rho^2 - 1|`` of a state treated as pure.  Since ``lambda_max >=
#: Tr rho^2``, such a state also passes :func:`pure_state_vector`.
_PURITY_TOL = 1e-8


def _purity(rho: FockOperator) -> float:
    """``Tr rho^2`` as ``sum |rho_ij|^2`` (equal for Hermitian ``rho``), in O(d^2)."""
    m = rho.matrix
    return float(np.vdot(m, m).real)


def _is_pure(rho: FockOperator) -> bool:
    """Whether ``|Tr rho^2 - 1| <= _PURITY_TOL``: the one test of a pure state (NaN fails)."""
    return abs(_purity(rho) - 1.0) <= _PURITY_TOL


def _n_abc(negs: Mapping[str, float]) -> float:
    prod = max(negs["A"], 0.0) * max(negs["B"], 0.0) * max(negs["C"], 0.0)
    return float(prod ** (1.0 / 3.0))


def _pi_abc(negs: Mapping[str, float], rho: FockOperator, flavor: str, tol: float) -> float:
    pair = {p: pairwise_negativity(rho, *p, flavor, tol) for p in ("AB", "AC", "BC")}
    pi_a = negs["A"] ** 2 - pair["AB"] ** 2 - pair["AC"] ** 2
    pi_b = negs["B"] ** 2 - pair["AB"] ** 2 - pair["BC"] ** 2
    pi_c = negs["C"] ** 2 - pair["AC"] ** 2 - pair["BC"] ** 2
    return float((pi_a + pi_b + pi_c) / 3.0)


def n_abc(rho: FockOperator, flavor: str = "fermionic", tol: float = FLAG_TOL) -> float:
    """Geometric mean of the three one-vs-rest negativities."""
    return _n_abc(one_vs_rest_negativities(rho, flavor, tol))


def pi_abc(rho: FockOperator, flavor: str = "fermionic", tol: float = FLAG_TOL) -> float:
    """Mean residual entanglement ``(pi_A + pi_B + pi_C)/3``.

    Each residual subtracts the squared pairwise reduced negativities from the
    squared one-vs-rest negativity of that party; applies to mixed states.
    """
    return _pi_abc(one_vs_rest_negativities(rho, flavor, tol), rho, flavor, tol)


def tripartite_report(
    rho: FockOperator, flavor: str = "fermionic", tol: float = FLAG_TOL
) -> MeasureReport:
    """All four tripartite measures plus the one-vs-rest negativities.

    The eight negativities behind them (three one-vs-rest, three pairwise
    reduced, two sector-projected for ``j_abc``) are each evaluated once.
    ``three_tangle`` is reported only for three-mode states that pass
    :func:`_is_pure`, the test by which ``fneg classify`` routes states: the
    tangle is not defined on mixed states or on parties of more than one mode.
    """
    negs = one_vs_rest_negativities(rho, flavor, tol)
    entries = {
        "negativity_A": negs["A"],
        "negativity_B": negs["B"],
        "negativity_C": negs["C"],
        "j_abc": j_abc(rho, flavor=flavor, tol=tol),
        "n_abc": _n_abc(negs),
        "pi_abc": _pi_abc(negs, rho, flavor, tol),
    }
    if rho.layout.num_modes == 3 and _is_pure(rho):
        entries["three_tangle"] = three_tangle(rho)
    return MeasureReport(entries, tolerance=tol, transpose_flavor=flavor)
