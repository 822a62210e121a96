"""Fermionic and bosonic partial transposes, partial trace, parity projection.

Every transpose here is one signed permutation of matrix entries, computed by
:func:`_signed_gather`: the matrix is viewed as a ``(2,)*2N`` tensor and the
ket and bra axes of each target mode are exchanged.  The bosonic flavor stops
there.  The fermionic flavor also flips the target occupations (the particle-hole
map ``x -> x ^ a`` of ``U_A = prod_{j in A} c_{2j-1}``) and multiplies the
entries by Jordan-Wigner signs and a target-parity phase.  Its result is the
canonical (Majorana-rule) operator: :func:`fermionic_pt_majorana` expands the
operator in Majorana monomials and multiplies every coefficient by ``i**k1``
with ``k1`` the number of Majorana factors on the transposed subsystem.  The
two agree elementwise to machine precision; the expansion is kept as the
independent oracle for small systems.

The transpose is an involution only up to parity conjugation,
``(X^{T_A})^{T_A} = (-1)^{F_A} X (-1)^{F_A}``, successive transposes over both
halves give the full transpose, and the operation is defined only on
parity-even (physical) operators.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import LayoutError, ParityError
from .fock import (
    FLAG_TOL,
    FockOperator,
    ModeLayout,
    SubsystemSpec,
    _permute_matrix,
    _popcount_array,
    _reorder_signs,
    _sign_vector,
    as_spec,
    leading_order_for,
    majorana_op,
)

#: Majorana-expansion path is cached per mode count; dense monomial stacks grow
#: as 8**N so the oracle is restricted to small systems.
_MAX_MAJORANA_MODES = 5


#: The fermionic output factor ``(sigma*s)[r] (sigma*s)[c] * i**(P[r] xor P[c])``
#: of :func:`_signed_gather` depends on an index only through its class
#: ``2*[(sigma*s) < 0] + P``; this table holds it for each pair of classes.
_SIGN_PHASE = np.array(
    [[(-1) ** ((k >> 1) + (l >> 1)) * 1j ** ((k ^ l) & 1) for l in range(4)] for k in range(4)]
)


@lru_cache(maxsize=256)
def _gather_plan(num_modes: int, targets: tuple[int, ...], fermionic: bool, stack_ndim: int = 0):
    """Axis order, axis reversals, input signs and output classes of :func:`_signed_gather`.

    The axes and reversals are those of a ``(...,) + (2,)*2N`` tensor with
    ``stack_ndim`` leading stack axes.  Only tuples and length-``2**N`` vectors
    are cached, never a d x d array: ``sigma`` comes from
    :func:`_reorder_signs`, ``s`` and ``P`` from :func:`_sign_vector`.  Signs
    that are all +1 (leading targets) and the bosonic flavor's signs and
    classes are ``None``.
    """
    n = num_modes
    axes = list(range(2 * n))
    index = [slice(None)] * (2 * n)
    for j in targets:
        ket = n - j  # C order: the first axis is mode N, the most significant bit
        axes[ket], axes[n + ket] = n + ket, ket
        if fermionic:
            index[ket] = index[n + ket] = slice(None, None, -1)
    axes = tuple(range(stack_ndim)) + tuple(stack_ndim + a for a in axes)
    index = (slice(None),) * stack_ndim + tuple(index)
    if not fermionic:
        return axes, index, None, None
    spec = SubsystemSpec(targets)
    sigma = _reorder_signs(n, leading_order_for(spec, n))
    # U_A = c_1 c_3 .. c_{2m-1} in the leading order: the p-th of the m sorted
    # targets is flipped after the m - p above it, so its Jordan-Wigner string
    # counts it m - p times.
    s_mask = sum(1 << (j - 1) for p, j in enumerate(targets, 1) if (len(targets) - p) % 2)
    negative = sigma * _sign_vector(n, s_mask) < 0
    classes = 2 * negative + (_sign_vector(n, spec.mask()) < 0)
    classes.setflags(write=False)
    return axes, index, None if (sigma > 0).all() else sigma, classes


def _signed_gather(
    matrix: np.ndarray, num_modes: int, spec: SubsystemSpec, fermionic: bool
) -> np.ndarray:
    """Partial transpose over ``spec``'s modes of each matrix of a ``(..., d, d)`` stack.

    Swapping the ket and bra axes of every target mode makes ``out[r, c]``
    read the entry whose ket has the target bits of ``c`` and the other bits of
    ``r``: the bosonic transpose.  The fermionic flavor also reverses those
    axes (the flip ``x ^ a`` of ``U_A``) and computes

        out = (sigma*s)[r] (sigma*s)[c] * i**(P[r] xor P[c]) * (sigma sigma^T o rho)[swap+flip]

    with ``sigma`` the Jordan-Wigner sign of moving the targets to the front,
    ``s`` the sign of ``U_A|x>`` and ``P`` the parity of the target bits.  The
    occupation rule's phase ``(-i)**(tau_A + tau_A') (-1)**((tau_A + tau_A')(tau_B + tau_B'))``
    takes this compact form only on parity-even input, which the callers check.
    """
    n, lead = num_modes, matrix.shape[:-2]
    axes, index, sigma, classes = _gather_plan(n, spec.sorted_modes(), fermionic, len(lead))
    if sigma is not None:
        matrix = matrix * sigma[:, None]
        matrix *= sigma
    tensor = matrix.reshape(lead + (2,) * (2 * n)).transpose(axes)[index]
    if classes is None:
        return np.ascontiguousarray(tensor).reshape(matrix.shape)
    # The phase table gathered to the output's shape is the output buffer; one
    # matrix, stacked or not, is gathered without broadcasting the row classes.
    one = matrix.size == classes.size ** 2
    rows = classes[:, None] if one else np.broadcast_to(classes[:, None], matrix.shape)
    out = _SIGN_PHASE[rows, classes]
    np.multiply(tensor, out.reshape(tensor.shape), out=out.reshape(tensor.shape))
    return out.reshape(matrix.shape)


def _resolve_spec(layout: ModeLayout, spec) -> SubsystemSpec:
    spec = as_spec(spec)
    spec.validate(layout)
    if len(spec) == layout.num_modes:
        raise LayoutError("transpose target must be a proper subsystem; use full_transpose")
    return spec


def fermionic_pt(rho: FockOperator, spec: SubsystemSpec, tol: float = FLAG_TOL) -> FockOperator:
    """Fermionic partial transpose of a parity-even operator over ``spec``.

    Every target, contiguous or not, takes one pass through
    :func:`_signed_gather`.  The trace is preserved and the output is
    generally non-Hermitian.
    """
    if not rho.is_parity_even(tol):
        raise ParityError("fermionic partial transpose is defined only on parity-even operators")
    spec = _resolve_spec(rho.layout, spec)
    mat = _signed_gather(rho.matrix, rho.layout.num_modes, spec, fermionic=True)
    return FockOperator(rho.layout, mat, copy=False)


@lru_cache(maxsize=8)
def _majorana_monomials(num_modes: int):
    """Stack of all ordered Majorana monomial matrices, indexed by bitmask.

    Bit ``p`` of the mask selects Majorana ``c_{p+1}``; the monomial is the
    product in increasing index order.  Monomials are Hilbert-Schmidt
    orthogonal with norm ``2**num_modes``.
    """
    if num_modes > _MAX_MAJORANA_MODES:
        raise LayoutError(
            f"Majorana-expansion path supports at most {_MAX_MAJORANA_MODES} modes"
        )
    scratch = ModeLayout(num_modes, ("A",) * num_modes)
    dim = scratch.dim
    majoranas = [majorana_op(scratch, k).matrix for k in range(1, 2 * num_modes + 1)]
    stack = np.zeros((1 << (2 * num_modes), dim, dim), dtype=complex)
    stack[0] = np.eye(dim)
    for mask in range(1, 1 << (2 * num_modes)):
        low = (mask & -mask).bit_length() - 1
        stack[mask] = majoranas[low] @ stack[mask ^ (1 << low)]
    stack.setflags(write=False)
    return stack


def fermionic_pt_majorana(
    rho: FockOperator, spec: SubsystemSpec, tol: float = FLAG_TOL
) -> FockOperator:
    """Fermionic partial transpose via the Majorana-monomial expansion.

    The operator is decomposed as a sum of ordered Majorana monomials and each
    coefficient is multiplied by ``i**k1`` where ``k1`` counts Majorana factors
    belonging to the target modes.  Serves as the independent oracle for
    :func:`fermionic_pt`.
    """
    if not rho.is_parity_even(tol):
        raise ParityError("fermionic partial transpose is defined only on parity-even operators")
    spec = _resolve_spec(rho.layout, spec)
    n = rho.layout.num_modes
    stack = _majorana_monomials(n)
    dim = rho.layout.dim
    coeffs = np.einsum("kab,ab->k", stack.conj(), rho.matrix) / dim
    masks = np.arange(1 << (2 * n))
    a_mask = 0
    for j in spec.target_modes:
        a_mask |= 0b11 << (2 * (j - 1))
    k1 = _popcount_array(masks & a_mask)
    total = _popcount_array(masks)
    # Parity-even operators have no odd-monomial content; drop numerical dust.
    coeffs = np.where(total % 2 == 0, coeffs, 0.0)
    mat = np.einsum("k,kab->ab", coeffs * (1j**k1), stack)
    return FockOperator(rho.layout, mat, copy=False)


def bosonic_pt(rho: FockOperator, spec: SubsystemSpec) -> FockOperator:
    """Plain matrix partial transposition over ``spec`` (no fermionic phases).

    Exchanges the target modes' ket and bra occupations of any operator.
    """
    spec = as_spec(spec)
    spec.validate(rho.layout)
    mat = _signed_gather(rho.matrix, rho.layout.num_modes, spec, fermionic=False)
    return FockOperator(rho.layout, mat, copy=False)


def full_transpose(op: FockOperator, tol: float = FLAG_TOL) -> FockOperator:
    """Fermionic transpose (Majorana reversal) of a parity-even operator.

    For parity-even operators the reversal sign ``(-1)**(k(k-1)/2)`` equals
    ``i**k``, so the full transpose coincides with the partial transpose taken
    over the complete mode set.
    """
    if not op.is_parity_even(tol):
        raise ParityError("fermionic transpose is defined only on parity-even operators")
    n = op.layout.num_modes
    everything = SubsystemSpec(tuple(range(1, n + 1)))
    mat = _signed_gather(op.matrix, n, everything, fermionic=True)
    return FockOperator(op.layout, mat, copy=False)


FLAVORS = ("fermionic", "bosonic")


def _check_flavor(flavor: str) -> str:
    if flavor not in FLAVORS:
        raise ValueError(f"transpose flavor must be one of {FLAVORS}, got {flavor!r}")
    return flavor


def partial_transpose(
    rho: FockOperator, spec: SubsystemSpec, flavor: str = "fermionic"
) -> FockOperator:
    """Dispatch between the fermionic and bosonic transpose flavors."""
    if _check_flavor(flavor) == "fermionic":
        return fermionic_pt(rho, spec)
    return bosonic_pt(rho, spec)


def partial_trace(rho: FockOperator, keep: SubsystemSpec) -> FockOperator:
    """Reduced operator on the kept modes; trace and parity-evenness preserved."""
    keep = as_spec(keep)
    keep.validate(rho.layout)
    n = rho.layout.num_modes
    kept = keep.sorted_modes()
    if len(kept) == n:
        return FockOperator(rho.layout, rho.matrix)
    labels = tuple(rho.layout.labels[m - 1] for m in kept)
    return FockOperator(ModeLayout(len(kept), labels), _traced(rho.matrix, n, keep), copy=False)


def _traced(matrix: np.ndarray, num_modes: int, keep: SubsystemSpec) -> np.ndarray:
    """:func:`partial_trace`'s matrices for a ``(..., d, d)`` stack and a proper ``keep``."""
    n = num_modes
    order = leading_order_for(keep, n)
    mat = matrix if order == tuple(range(1, n + 1)) else _permute_matrix(matrix, n, order)
    dk, dt = 1 << len(keep), 1 << (n - len(keep))
    return np.trace(mat.reshape(mat.shape[:-2] + (dt, dk, dt, dk)), axis1=-4, axis2=-2)


class ProjectedState(NamedTuple):
    """Normalized parity-sector projection and its probability weight.

    ``state`` is ``None`` when the sector weight falls below the empty-sector
    tolerance (no division is attempted).
    """

    state: FockOperator | None
    weight: float


def parity_project(
    rho: FockOperator,
    spec: SubsystemSpec,
    sector: str,
    tol: float = FLAG_TOL,
) -> ProjectedState:
    """Project a density matrix onto the even/odd parity sector of ``spec``'s modes.

    Returns the normalized state ``P rho P / p`` and the weight
    ``p = Tr(P rho P)``; the weights of the two sectors sum to one.
    """
    if sector not in ("even", "odd"):
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    rho.require_density_matrix(tol)
    spec = as_spec(spec)
    spec.validate(rho.layout)
    proj, weight = _sector_projection(rho.matrix[None], rho.layout.num_modes, spec.mask(), sector)
    kept, states = _nonempty(proj, weight, tol)
    if not kept.size:
        return ProjectedState(None, 0.0)
    return ProjectedState(FockOperator(rho.layout, states[0], copy=False), float(weight[0]))


def _sector_projection(matrix: np.ndarray, num_modes: int, mask: int, sector: str) -> tuple:
    """``P M P`` and ``Re Tr(P M P)`` for each ``M`` of a stack, ``P`` a sector of a parity."""
    signs = _sign_vector(num_modes, mask)
    keep = signs > 0 if sector == "even" else signs < 0
    projected = np.where(keep[:, None] & keep[None, :], matrix, 0.0)
    return projected, np.real(np.trace(projected, axis1=-2, axis2=-1))


def _nonempty(projected: np.ndarray, weight: np.ndarray, tol: float = FLAG_TOL) -> tuple:
    """Indices and ``projected / weight`` of the members of a stack whose weight is not ``<= tol``.

    The one empty-branch rule (a NaN weight is not empty); divides in place if all are kept.
    """
    kept = np.flatnonzero(~(weight <= tol))
    if kept.size < len(projected):
        projected = projected[kept]
    projected /= weight[kept, None, None]
    return kept, projected
