"""Dense Fock-space machinery for small systems of local fermionic modes.

The Hilbert space of ``N`` modes is spanned by occupation-number vectors
``|n_1 .. n_N>`` encoded as integers ``i = sum_j n_j 2**(j-1)``: mode 1 is the
least-significant bit.  Subsystem labels (``"A"``, ``"B"``, ...) are attached
per mode and must form contiguous blocks in ascending label order, which is the
normal-ordered convention used throughout: every operator matrix is expressed
in this single basis, and any reordering of modes is performed explicitly with
Jordan-Wigner sign bookkeeping (see :func:`permute_modes`).

Creation operators act as ``f_j^+ |..0_j..> = (-1)**(n_1+..+n_{j-1}) |..1_j..>``
and Majorana operators are ``c_{2j-1} = f_j^+ + f_j``, ``c_{2j} = -i (f_j^+ - f_j)``.
Every parity and Jordan-Wigner sign is a masked parity ``(-1)**popcount(i & mask)``
read from :func:`_sign_vector`; every parity-commutator test is :func:`_parity_leak`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import LayoutError, ParityError, StateValidationError

#: Hard cap on the number of modes; matrices are dense 2**N x 2**N.
MAX_MODES = 12

#: Tolerance used for lazily cached operator flags (hermitian / parity / trace / PSD).
FLAG_TOL = 1e-10


def _check_count(name: str, value) -> None:
    """Raise unless ``value`` is an ``int`` or ``np.integer`` (not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def _check_nonnegative(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite number >= 0 (NaN fails)."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def _popcount_array(a: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(a)
    return np.array([int(v).bit_count() for v in a.ravel()]).reshape(a.shape)


@lru_cache(maxsize=256)
def _sign_vector(num_modes: int, mask: int) -> np.ndarray:
    """Read-only ``(-1)**popcount(i & mask)`` for every basis index ``i``, as floats."""
    signs = 1.0 - 2.0 * (_popcount_array(np.arange(1 << num_modes) & mask) % 2)
    signs.setflags(write=False)
    return signs


_LEAK_BAND = 64  # rows per band of _leak_blocks and _hermitian_residual; a band stays in cache


@lru_cache(maxsize=256)
def _leak_blocks(num_modes: int, mask: int) -> tuple:
    """Indexers of the entries that change the masked parity, each applied as ``M[..., *indexer]``.

    Up to :data:`_LEAK_BAND` rows, one boolean mask of those entries; above,
    ``np.ix_`` row bands of the two blocks that change the parity, so nothing
    of size d x d is cached.
    """
    signs = _sign_vector(num_modes, mask)
    if signs.size <= _LEAK_BAND:
        leak = np.not_equal.outer(signs, signs)
        leak.setflags(write=False)
        return ((leak,),)
    even, odd = np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)
    even.setflags(write=False)
    odd.setflags(write=False)
    return tuple(
        np.ix_(rows[k:k + _LEAK_BAND], cols)
        for rows, cols in ((even, odd), (odd, even))
        for k in range(0, rows.size, _LEAK_BAND)
    )


def _parity_leak(matrix: np.ndarray, num_modes: int, mask: int) -> np.ndarray:
    """Largest ``|M_ij|`` with ``i`` and ``j`` of different parity on the ``mask`` bits.

    Half the max-norm of ``[(-1)^{F_mask}, M]``, one value per matrix of a
    ``(..., d, d)`` stack; NaN for a matrix with an entry that is not finite.
    """
    lead = matrix.shape[:-2]
    leak = reduce(np.maximum, (
        np.abs(matrix[(Ellipsis, *block)]).reshape(*lead, -1).max(axis=-1)
        for block in _leak_blocks(num_modes, mask)
    ))
    return np.where(np.isfinite(matrix).all(axis=(-2, -1)), leak, np.nan)


#: Fewest modes at which spectra are taken on the parity blocks.  At N = 4 the
#: gather and the zero test cost more than the smaller SVD/eigvalsh saves (one
#: fresh-state negativity took about 10 us longer); from N = 5 the blocks win.
_BLOCK_MIN_MODES = 5


def _exact(leak, num_modes: int):
    """Whether a parity leak, a stack of them, or a function returning them marks exact blocks.

    From :data:`_BLOCK_MIN_MODES` modes a leak of exactly 0.0 does: every entry
    is finite and none lies between the sectors.  Below, plain ``False``, no call.
    """
    if num_modes < _BLOCK_MIN_MODES:
        return False
    return (leak() if callable(leak) else leak) == 0.0


@lru_cache(maxsize=64)
def _parity_block_index(num_modes: int) -> tuple:
    """Row and column indexers that gather the even-even and odd-odd global-parity blocks."""
    signs = _sign_vector(num_modes, (1 << num_modes) - 1)
    index = np.stack([np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)])
    index.setflags(write=False)
    return index[:, :, None], index[:, None, :]


def _gather_blocks(matrix: np.ndarray, num_modes: int) -> np.ndarray:
    """The even-even and odd-odd global-parity blocks as one ``(..., 2, d/2, d/2)`` stack."""
    rows, cols = _parity_block_index(num_modes)
    return matrix[..., rows, cols]


def _hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """``(M + M^H)/2`` for each matrix of a ``(..., d, d)`` stack."""
    return (matrix + matrix.conj().swapaxes(-1, -2)) / 2


def _hermitian_residual(matrix: np.ndarray) -> np.ndarray:
    """``max |M - M^H|`` for each matrix of a ``(..., d, d)`` stack.

    Reads the upper triangle in row bands against the transposed column bands,
    so no d x d temporary is built.  A band holds ``conj(M) - M^T``, which has
    the moduli of ``M - M^H`` and needs no conjugated copy of the column band.
    A matrix with an entry that is not finite gets NaN or inf, which fails
    every ``<= tol`` test.
    """
    worst = 0.0
    with np.errstate(invalid="ignore"):  # inf - inf on an infinite diagonal entry is NaN
        for k in range(0, matrix.shape[-1], _LEAK_BAND):
            band = matrix[..., k:k + _LEAK_BAND, k:].conj()
            band -= matrix[..., k:, k:k + _LEAK_BAND].swapaxes(-1, -2)
            worst = np.maximum(worst, np.abs(band).max(axis=(-2, -1)))
            del band  # before the next band is allocated
    return worst


def _unit_trace(matrix: np.ndarray, tol: float) -> np.ndarray:
    """Whether ``|Tr M - 1| <= tol`` for each matrix of a ``(..., d, d)`` stack."""
    return np.abs(np.trace(matrix, axis1=-2, axis2=-1) - 1.0) <= tol


def _dense_min_eigenvalue(matrix: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each matrix of a ``(..., d, d)`` stack."""
    return np.linalg.eigvalsh(_hermitian_part(matrix))[..., 0]


def _cholesky_psd(matrix: np.ndarray, tol: float) -> np.ndarray:
    """Whether ``_dense_min_eigenvalue >= -tol`` for each matrix of a ``(..., d, d)`` stack.

    One Cholesky factorization of every Hermitian part shifted by ``tol/2``.
    It succeeds only if each ``lambda_min >= -tol/2`` up to a backward error of
    about ``d * eps * |M|``, which proves every verdict true.  If any member
    fails, the verdicts come from ``eigvalsh`` (:func:`_dense_min_eigenvalue`),
    so they equal the eigenvalue test everywhere.
    """
    herm = _hermitian_part(matrix)
    d = herm.shape[-1]
    herm.reshape(*herm.shape[:-2], d * d)[..., ::d + 1] += tol / 2  # a view of the diagonals
    try:
        np.linalg.cholesky(herm)
    except np.linalg.LinAlgError:
        pass
    else:
        return np.ones(matrix.shape[:-2], dtype=bool)
    del herm  # before the eigenvalue test builds its own Hermitian part
    return _dense_min_eigenvalue(matrix) >= -tol


@dataclass(frozen=True)
class ModeLayout:
    """Number of modes plus a per-mode subsystem label.

    Parameters
    ----------
    num_modes:
        Number of fermionic modes ``N`` (``1 <= N <= MAX_MODES``).
    labels:
        One label per mode.  Modes carrying the same label must be contiguous
        and the label blocks must appear in ascending order, e.g.
        ``("A", "A", "B")``.
    """

    num_modes: int
    labels: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= self.num_modes <= MAX_MODES:
            raise LayoutError(f"num_modes must be in [1, {MAX_MODES}], got {self.num_modes}")
        if len(self.labels) != self.num_modes:
            raise LayoutError("labels must assign exactly one tag per mode")
        blocks = []
        for lab in self.labels:
            if not blocks or blocks[-1] != lab:
                blocks.append(lab)
        if len(set(blocks)) != len(blocks) or list(blocks) != sorted(blocks):
            raise LayoutError(
                f"labels must form contiguous blocks in ascending order, got {self.labels}"
            )

    @classmethod
    def bipartite(cls, m_a: int, m_b: int) -> "ModeLayout":
        return cls(m_a + m_b, ("A",) * m_a + ("B",) * m_b)

    @classmethod
    def tripartite(cls, m_a: int = 1, m_b: int = 1, m_c: int = 1) -> "ModeLayout":
        return cls(m_a + m_b + m_c, ("A",) * m_a + ("B",) * m_b + ("C",) * m_c)

    @property
    def dim(self) -> int:
        return 1 << self.num_modes

    @property
    def subsystems(self) -> tuple[str, ...]:
        seen: list[str] = []
        for lab in self.labels:
            if lab not in seen:
                seen.append(lab)
        return tuple(seen)

    def modes_with_label(self, label: str) -> tuple[int, ...]:
        modes = tuple(j + 1 for j, lab in enumerate(self.labels) if lab == label)
        if not modes:
            raise LayoutError(f"no mode carries label {label!r}")
        return modes

    def spec(self, label: str) -> "SubsystemSpec":
        """Subsystem spec covering all modes with the given label."""
        return SubsystemSpec(self.modes_with_label(label))


@dataclass(frozen=True)
class SubsystemSpec:
    """An ordered subset of 1-based mode indices designating a transpose/trace target."""

    target_modes: tuple[int, ...]

    def __post_init__(self):
        for m in self.target_modes:
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
                raise LayoutError(f"spec modes must be integers, got {m!r}")
        modes = tuple(int(m) for m in self.target_modes)
        object.__setattr__(self, "target_modes", modes)
        if not modes:
            raise LayoutError("subsystem spec must be non-empty")
        if len(set(modes)) != len(modes):
            raise LayoutError(f"duplicate modes in spec {modes}")

    def validate(self, layout: ModeLayout) -> None:
        bad = [m for m in self.target_modes if not 1 <= m <= layout.num_modes]
        if bad:
            raise LayoutError(f"modes {bad} outside layout with {layout.num_modes} modes")

    def sorted_modes(self) -> tuple[int, ...]:
        return tuple(sorted(self.target_modes))

    def complement(self, layout: ModeLayout) -> "SubsystemSpec":
        self.validate(layout)
        rest = tuple(m for m in range(1, layout.num_modes + 1) if m not in self.target_modes)
        if not rest:
            raise LayoutError("complement of the full mode set is empty")
        return SubsystemSpec(rest)

    def mask(self) -> int:
        """Bitmask with bit j-1 set for every target mode j."""
        m = 0
        for j in self.target_modes:
            m |= 1 << (j - 1)
        return m

    def __len__(self) -> int:
        return len(self.target_modes)


def as_spec(spec: "SubsystemSpec | Iterable[int] | int") -> SubsystemSpec:
    if isinstance(spec, SubsystemSpec):
        return spec
    if isinstance(spec, (int, np.integer)):
        return SubsystemSpec((spec,))
    return SubsystemSpec(tuple(spec))


class FockOperator:
    """A dense complex operator on the Fock space of a :class:`ModeLayout`.

    Matrices are stored read-only; every operation in this package is a pure
    function returning fresh instances, so values can be shared freely between
    threads.  Two residuals are read once per operator, as floats: the
    Hermiticity residual ``max |M - M^H|`` and the global-parity leak (the
    largest entry between the even and odd sectors, NaN if an entry is not
    finite).  ``is_hermitian`` and ``is_parity_even`` compare them with any
    ``tol``.  The unit-trace and positive semi-definite flags are computed
    lazily per tolerance and cached, so a state validated once pays for a
    single PSD decision.  Each residual and flag hands the matrix to a kernel
    that takes a ``(..., d, d)`` stack, so a batch of samples is checked by the
    same code as one operator.

    When the operator has exact blocks (:func:`_exact`), spectra are taken on
    the two diagonal blocks.  The PSD decision is :func:`_cholesky_psd` of those
    blocks, or of the whole matrix without them: a Cholesky factorization of the
    Hermitian part shifted by ``tol/2``, and ``min_eigenvalue() >= -tol`` if it fails.

    From :data:`_BLOCK_MIN_MODES` modes, ``_norms`` keeps the partial-transpose
    trace norms behind :func:`fneg.measures.negativity` and its siblings, one
    float per ``(flavor, target mask)``.  No matrix is cached: every cache
    holds floats or bools, and all rely on the matrix being read-only.
    """

    __slots__ = ("layout", "matrix", "_flags", "_norms")

    def __init__(self, layout: ModeLayout, matrix: np.ndarray, copy: bool = True):
        matrix = np.array(matrix, dtype=complex) if copy else np.asarray(matrix, dtype=complex)
        if matrix.shape != (layout.dim, layout.dim):
            raise LayoutError(
                f"matrix shape {matrix.shape} does not match layout dimension {layout.dim}"
            )
        matrix.setflags(write=False)
        self.layout = layout
        self.matrix = matrix
        self._flags: dict[str, bool | float] = {}
        self._norms: dict[tuple[str, int], float] = {}

    # -- flags ---------------------------------------------------------------

    def _cached(self, key: str, fn, kind=bool):
        if key not in self._flags:
            self._flags[key] = kind(fn())
        return self._flags[key]

    def _hermitian_residual(self) -> float:
        return self._cached("herm", lambda: _hermitian_residual(self.matrix), float)

    def _parity_leak(self) -> float:
        return self._cached(
            "leak", lambda: _parity_leak(self.matrix, self.layout.num_modes, self.dim - 1), float
        )

    def _exact_blocks(self) -> bool:
        return bool(_exact(self._parity_leak, self.layout.num_modes))

    def _blocks_or_matrix(self) -> np.ndarray:
        """The two global-parity blocks as one ``(2, d/2, d/2)`` stack if exact, else the matrix."""
        if self._exact_blocks():
            return _gather_blocks(self.matrix, self.layout.num_modes)
        return self.matrix

    def is_hermitian(self, tol: float = FLAG_TOL) -> bool:
        return bool(self._hermitian_residual() <= tol)

    def is_parity_even(self, tol: float = FLAG_TOL) -> bool:
        """Whether ``(-1)^F M (-1)^F == M`` elementwise at the given tolerance.

        The difference is ``-2 M`` on the parity-changing blocks, exactly 0 elsewhere.
        """
        return bool(2.0 * self._parity_leak() <= tol)

    def is_unit_trace(self, tol: float = FLAG_TOL) -> bool:
        return self._cached(f"tr@{tol}", lambda: _unit_trace(self.matrix, tol))

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the Hermitian part (meaningful for Hermitian input).

        Taken on the two global-parity blocks when the operator has exact
        blocks, on the whole matrix otherwise.
        """
        return float(_dense_min_eigenvalue(self._blocks_or_matrix()).min())

    def _is_psd(self, tol: float) -> bool:
        return self._cached(
            f"psd@{tol}", lambda: _cholesky_psd(self._blocks_or_matrix(), tol).all()
        )

    def is_density_matrix(self, tol: float = FLAG_TOL, require_parity: bool = True) -> bool:
        if not (self.is_hermitian(tol) and self.is_unit_trace(tol)):
            return False
        if require_parity and not self.is_parity_even(tol):
            return False
        return self._is_psd(tol)

    def require_density_matrix(self, tol: float = FLAG_TOL, require_parity: bool = True) -> None:
        if not (self.is_hermitian(tol) and self.is_unit_trace(tol)):
            raise StateValidationError("operator is not a unit-trace Hermitian matrix")
        if not self._is_psd(tol):
            raise StateValidationError("operator is not positive semi-definite")
        if require_parity and not self.is_parity_even(tol):
            raise ParityError("density matrix does not commute with the global parity operator")

    def require_parity_even(self, tol: float = FLAG_TOL) -> None:
        if not self.is_parity_even(tol):
            raise ParityError("operator is not fermion-number parity even")

    # -- light operator algebra ------------------------------------------------

    @property
    def dim(self) -> int:
        return self.layout.dim

    def dagger(self) -> "FockOperator":
        return FockOperator(self.layout, self.matrix.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        if other.layout != self.layout:
            raise LayoutError("operator product requires identical layouts")
        return FockOperator(self.layout, self.matrix @ other.matrix, copy=False)

    def __add__(self, other: "FockOperator") -> "FockOperator":
        if other.layout != self.layout:
            raise LayoutError("operator sum requires identical layouts")
        return FockOperator(self.layout, self.matrix + other.matrix, copy=False)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        if other.layout != self.layout:
            raise LayoutError("operator difference requires identical layouts")
        return FockOperator(self.layout, self.matrix - other.matrix, copy=False)

    def __mul__(self, scalar: complex) -> "FockOperator":
        return FockOperator(self.layout, self.matrix * scalar, copy=False)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"FockOperator(N={self.layout.num_modes}, labels={self.layout.labels})"


# -- elementary operators -------------------------------------------------------


def identity_op(layout: ModeLayout) -> FockOperator:
    return FockOperator(layout, np.eye(layout.dim, dtype=complex), copy=False)


def creation_op(layout: ModeLayout, j: int) -> FockOperator:
    """Matrix of ``f_j^+`` with the Jordan-Wigner sign ``(-1)**(n_1+..+n_{j-1})``."""
    if not 1 <= j <= layout.num_modes:
        raise LayoutError(f"mode index {j} out of range 1..{layout.num_modes}")
    n, bit = layout.num_modes, 1 << (j - 1)
    empty = np.flatnonzero(_sign_vector(n, bit) > 0)  # columns with mode j empty
    mat = np.zeros((layout.dim, layout.dim), dtype=complex)
    mat[empty | bit, empty] = _sign_vector(n, bit - 1)[empty]
    return FockOperator(layout, mat, copy=False)


def annihilation_op(layout: ModeLayout, j: int) -> FockOperator:
    return creation_op(layout, j).dagger()


def majorana_op(layout: ModeLayout, k: int) -> FockOperator:
    """Majorana operator ``c_k``; ``c_{2j-1} = f_j^+ + f_j``, ``c_{2j} = -i(f_j^+ - f_j)``."""
    if not 1 <= k <= 2 * layout.num_modes:
        raise LayoutError(f"Majorana index {k} out of range 1..{2 * layout.num_modes}")
    j = (k + 1) // 2
    fdag = creation_op(layout, j).matrix
    f = fdag.conj().T
    mat = fdag + f if k % 2 else -1j * (fdag - f)
    return FockOperator(layout, mat, copy=False)


def number_op(layout: ModeLayout, j: int) -> FockOperator:
    fdag = creation_op(layout, j).matrix
    return FockOperator(layout, fdag @ fdag.conj().T, copy=False)


def parity_op(layout: ModeLayout, spec: SubsystemSpec | None = None) -> FockOperator:
    """Diagonal operator ``(-1)**F_S`` counting occupation over the spec's modes."""
    if spec is None:
        mask = layout.dim - 1
    else:
        spec = as_spec(spec)
        spec.validate(layout)
        mask = spec.mask()
    signs = _sign_vector(layout.num_modes, mask)
    return FockOperator(layout, np.diag(signs.astype(complex)), copy=False)


# -- mode permutation with Jordan-Wigner signs -----------------------------------


@lru_cache(maxsize=256)
def _reorder_signs(num_modes: int, new_order: tuple[int, ...]) -> np.ndarray:
    """Read-only Jordan-Wigner signs of a reordering over old basis indices.

    ``new_order[k]`` is the old (1-based) mode at new position ``k+1``.  Each
    occupied mode ``p`` gives the occupation parity of the lower modes placed after it.
    """
    signs = np.ones(1 << num_modes)
    for k, p in enumerate(new_order):
        later_lower = sum(1 << (q - 1) for q in new_order[k + 1:] if q < p)
        if later_lower:
            occupied = _sign_vector(num_modes, 1 << (p - 1)) < 0
            signs[occupied] *= _sign_vector(num_modes, later_lower)[occupied]
    signs.setflags(write=False)
    return signs


def permute_modes(
    op: FockOperator, new_order: Sequence[int], labels: Sequence[str] | None = None
) -> FockOperator:
    """Reorder modes so that new position ``k`` carries old mode ``new_order[k-1]``.

    The result is expressed in the normal-ordered basis of the new ordering:
    the matrix is scaled by the Jordan-Wigner signs of the reordering on both
    sides and viewed as a ``(2,)*2N`` tensor whose ket and bra mode axes are
    permuted.  ``labels`` overrides the permuted labels (they must still
    satisfy the layout invariant).
    """
    n = op.layout.num_modes
    new_order = tuple(int(m) for m in new_order)
    if sorted(new_order) != list(range(1, n + 1)):
        raise LayoutError(f"{new_order} is not a permutation of modes 1..{n}")
    if labels is None:
        labels = tuple(op.layout.labels[m - 1] for m in new_order)
    new_layout = ModeLayout(n, tuple(labels))
    mat = _permute_matrix(op.matrix, n, new_order)
    return FockOperator(new_layout, mat, copy=False)


@lru_cache(maxsize=256)
def _permute_plan(num_modes: int, new_order: tuple[int, ...]) -> tuple:
    """The ``(2,)*2N`` axis order and the read-only signs (``None`` if all +1) of a reordering."""
    n = num_modes
    ket = [n - m for m in reversed(new_order)]  # C order: the first axis is mode N
    signs = _reorder_signs(n, new_order).reshape((2,) * n).transpose(ket).ravel()
    signs.setflags(write=False)
    return tuple(ket + [n + a for a in ket]), signs if (signs < 0).any() else None


def _permute_matrix(matrix: np.ndarray, num_modes: int, new_order: tuple[int, ...]) -> np.ndarray:
    """:func:`permute_modes`' matrix for each matrix of a ``(..., d, d)`` stack."""
    axes, signs = _permute_plan(num_modes, tuple(new_order))
    k = matrix.ndim - 2
    out = matrix.reshape(matrix.shape[:k] + (2,) * (2 * num_modes))
    out = out.transpose(tuple(range(k)) + tuple(k + a for a in axes)).copy().reshape(matrix.shape)
    if signs is not None:
        out *= signs[:, None]
        out *= signs[None, :]
    return out


def _inverse_order(new_order: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(new_order)
    for pos, mode in enumerate(new_order):
        inv[mode - 1] = pos + 1
    return tuple(inv)


def leading_order_for(spec: SubsystemSpec, num_modes: int) -> tuple[int, ...]:
    """Permutation placing the spec's modes (sorted) first, the rest after."""
    inside = spec.sorted_modes()
    outside = tuple(m for m in range(1, num_modes + 1) if m not in inside)
    return inside + outside


# -- graded tensor product and local embedding ------------------------------------


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the matching matrices of two stacks, without its generic set-up."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _require_even_stack(layout: ModeLayout, stack: np.ndarray,
                        check=FockOperator.require_parity_even) -> None:
    """``require_parity_even``'s test of each matrix of a stack.

    The first member that fails is handed, as a :class:`FockOperator`, to
    ``check``: a per-call function whose parity error it raises.
    """
    leak = _parity_leak(stack, layout.num_modes, layout.dim - 1)
    for member in stack[~(2.0 * leak <= FLAG_TOL)]:
        check(FockOperator(layout, member))


def _density_verdicts(stack: np.ndarray, num_modes: int, tol: float) -> tuple:
    """Verdicts of ``require_density_matrix(tol)`` on a ``(k, d, d)`` stack, and what they read.

    Returns each member's verdict (False if it fails), global-parity leak and
    Hermiticity residual.  The PSD test needs the finite input the others
    prove, so it runs only if every member passes them: the verdicts are all
    True only if every member passes all.  Like :meth:`FockOperator._is_psd`,
    it factors the parity blocks when every member has exact blocks: the
    dense factorization of a five- or six-mode stack raised the peak RSS of
    ``verify locc`` by 0.5 MB.
    """
    leak = _parity_leak(stack, num_modes, (1 << num_modes) - 1)
    herm = _hermitian_residual(stack)
    valid = (herm <= tol) & _unit_trace(stack, tol) & (2.0 * leak <= tol)
    if valid.all() and np.all(_exact(leak, num_modes)):
        valid = _cholesky_psd(_gather_blocks(stack, num_modes), tol).all(axis=-1)
    elif valid.all():
        valid = _cholesky_psd(stack, tol)
    return valid, leak, herm


def graded_tensor(lhs: FockOperator, rhs: FockOperator) -> FockOperator:
    """Graded tensor product of two parity-even operators.

    Mode blocks of equal label from both operands are merged (left operand's
    modes first within each block) and the result is expressed in the canonical
    ordering of the combined layout, with Jordan-Wigner signs from the interleaving
    handled internally.  For parity-even operands the graded product in the
    concatenated ordering is the plain Kronecker product; only the reordering
    into label-contiguous form introduces signs.
    """
    lhs.require_parity_even()
    rhs.require_parity_even()
    layout, mat = _graded_product(lhs.layout, rhs.layout, lhs.matrix, rhs.matrix)
    return FockOperator(layout, mat, copy=False)


def _graded_product(lhs_layout: ModeLayout, rhs_layout: ModeLayout, lhs: np.ndarray,
                    rhs: np.ndarray) -> tuple:
    """:func:`graded_tensor`'s layout and matrices for two ``(..., d, d)`` stacks, unchecked."""
    n1, n2 = lhs_layout.num_modes, rhs_layout.num_modes
    if n1 + n2 > MAX_MODES:
        raise LayoutError(f"combined system exceeds {MAX_MODES} modes")
    # rhs modes occupy the high bits: index = i_lhs + 2**n1 * i_rhs.
    combined = _kron(rhs, lhs)
    concat_labels = lhs_layout.labels + rhs_layout.labels
    all_labels = sorted(set(concat_labels))
    new_order = []
    for lab in all_labels:
        new_order.extend(m + 1 for m, l in enumerate(concat_labels) if l == lab)
    new_labels = tuple(concat_labels[m - 1] for m in new_order)
    mat = _permute_matrix(combined, n1 + n2, tuple(new_order))
    return ModeLayout(n1 + n2, new_labels), mat


def embed_local(local: FockOperator, layout: ModeLayout, modes: Sequence[int]) -> FockOperator:
    """Embed a parity-even operator on the given modes into the full space.

    ``local`` is defined on its own layout of ``len(modes)`` modes whose k-th
    mode is identified with ``modes[k]`` of the target layout.  Only physical
    (parity-even) operators embed without a Jordan-Wigner string, which is why
    the parity requirement is enforced.
    """
    local.require_parity_even()
    return FockOperator(layout, _embedded(local.matrix, layout, modes), copy=False)


def _embedded(local: np.ndarray, layout: ModeLayout, modes: Sequence[int]) -> np.ndarray:
    """:func:`embed_local`'s matrices for a ``(..., d, d)`` stack of local matrices, unchecked."""
    modes = tuple(int(m) for m in modes)
    if local.shape[-1] != 1 << len(modes):
        raise LayoutError("embedding requires one target mode per local mode")
    spec = SubsystemSpec(modes)
    spec.validate(layout)
    n = layout.num_modes
    big = _kron(np.eye(1 << (n - len(modes)), dtype=complex), local)
    # big lives on the ordering [modes..., rest...]; undo it unless that is the identity.
    order = modes + tuple(m for m in range(1, n + 1) if m not in modes)
    if order != tuple(range(1, n + 1)):
        big = _permute_matrix(big, n, _inverse_order(order))
    return big
