"""Canonical and random state constructors.

Canonical states reproduce the worked examples: the two-mode singlet and
Werner family, the Majorana-dimer mixed state, the fermionic W and GHZ states,
the three-Majorana mixed state, the GHZ/W interpolation family, and general
two- and three-mode pure states parametrized by their sector amplitudes.

Random constructors sample Haar pure states within a parity sector, full-rank
physical density matrices (optionally constrained to commute or visibly fail
to commute with a subsystem parity operator), and convex mixtures of graded
products of local parity-even density matrices.  All constructors are
deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError, SamplingError, StateValidationError
from .fock import (
    FockOperator,
    ModeLayout,
    SubsystemSpec,
    _check_count,
    _inverse_order,
    _parity_leak,
    _permute_matrix,
    _sign_vector,
    as_spec,
    majorana_op,
)

#: Commutator norm above which a sampled state counts as type II.
TYPE_II_THRESHOLD = 1e-6

_RESAMPLE_BUDGET = 1000

PARITY_SECTORS = ("even", "odd")


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    try:
        return np.random.default_rng(seed)
    except TypeError as err:  # a float or a string: numpy's SeedSequence error
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}") from err


@dataclass(frozen=True)
class PureCoeffs:
    """Sector amplitudes of a two- or three-mode pure state.

    ``lambdas`` has length 2 (two modes) or 4 (three modes) and must be
    normalized; ``parity_sector`` selects the even or odd branch of the
    parametrization.
    """

    lambdas: tuple[complex, ...]
    parity_sector: str

    def __post_init__(self):
        lams = tuple(complex(x) for x in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        if len(lams) not in (2, 4):
            raise StateValidationError("lambdas must have length 2 or 4")
        if self.parity_sector not in PARITY_SECTORS:
            raise StateValidationError(f"parity_sector must be one of {PARITY_SECTORS}")
        if not abs(sum(abs(x) ** 2 for x in lams) - 1.0) <= 1e-10:  # NaN fails
            raise StateValidationError("lambdas are not normalized")

    @property
    def num_modes(self) -> int:
        return 2 if len(self.lambdas) == 2 else 3


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(np.abs(vec) > 1e-12)
    if nz.size:
        vec = vec * (np.abs(vec[nz[0]]) / vec[nz[0]])
    return vec


def _density(layout: ModeLayout, vec: np.ndarray) -> FockOperator:
    """``|vec><vec|`` made Hermitian bit for bit: ``np.outer`` rounds mirror entries apart."""
    m = np.outer(vec, vec.conj())
    m += m.conj().T
    m *= 0.5
    return FockOperator(layout, m, copy=False)


#: Occupation basis index (bit ``j-1`` is ``n_j``) of each sector amplitude
#: ``lambda_k``, keyed by (modes, parity sector).
_SECTOR_BASIS = {
    (2, "even"): [0b00, 0b11],  # |0>, f1+ f2+ |0>
    (2, "odd"): [0b01, 0b10],  # f1+ |0>, f2+ |0>
    (3, "even"): [0b000, 0b011, 0b110, 0b101],  # |0>, f1+ f2+ |0>, f2+ f3+ |0>, f1+ f3+ |0>
    (3, "odd"): [0b100, 0b111, 0b010, 0b001],  # f3+ |0>, f1+ f2+ f3+ |0>, f2+ |0>, f1+ |0>
}


def pure_vector_from_coeffs(coeffs: PureCoeffs) -> tuple[np.ndarray, ModeLayout]:
    """State vector (``coeffs.lambdas`` placed by :data:`_SECTOR_BASIS`) and layout."""
    vec = np.zeros(1 << coeffs.num_modes, dtype=complex)
    vec[_SECTOR_BASIS[coeffs.num_modes, coeffs.parity_sector]] = coeffs.lambdas
    return vec, ModeLayout.bipartite(1, 1) if coeffs.num_modes == 2 else ModeLayout.tripartite()


#: The singlet, W and GHZ states as points of the sector-amplitude parametrization.
_SECTOR_POINTS = {
    "singlet": PureCoeffs((1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)), "odd"),
    "w": PureCoeffs((1.0 / np.sqrt(3.0), 0.0, 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)), "odd"),
    "ghz": PureCoeffs((0.5, 0.5, 0.5, 0.5), "odd"),
}
_GHZ, _W = (pure_vector_from_coeffs(_SECTOR_POINTS[name])[0] for name in ("ghz", "w"))
_GHZ.setflags(write=False)
_W.setflags(write=False)


def canonical_vector(name: str, **params) -> tuple[np.ndarray, ModeLayout]:
    """State vector and layout for the named pure canonical state.

    Supported names: ``singlet``, ``w``, ``ghz``, ``psi_p`` (``p``),
    ``two_mode_pure`` and ``three_mode_pure`` (``lambdas``, ``parity``).
    The global phase is fixed by making the first nonzero amplitude real
    and positive.
    """
    if name == "psi_p":
        p = float(params["p"])
        if not 0.0 <= p <= 1.0:
            raise StateValidationError(f"psi_p parameter must be in [0, 1], got {p}")
        vec = np.sqrt(p) * _GHZ - np.sqrt(1.0 - p) * _W
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            raise StateValidationError("psi_p superposition collapsed to zero")
        return _fix_phase(vec / norm), ModeLayout.tripartite()
    if name in _SECTOR_POINTS:
        coeffs = _SECTOR_POINTS[name]
    elif name in ("two_mode_pure", "three_mode_pure"):
        coeffs = PureCoeffs(tuple(params["lambdas"]), params["parity"])
        want = 2 if name == "two_mode_pure" else 3
        if coeffs.num_modes != want:
            raise StateValidationError(f"{name} expects {2 * want - 2} amplitudes")
    else:
        raise ValueError(f"unknown pure canonical state {name!r}")
    vec, layout = pure_vector_from_coeffs(coeffs)
    return _fix_phase(vec), layout


def majorana_dimer_state() -> FockOperator:
    """The rank-two mixed state of two tunnel-coupled Majorana modes.

    Equals ``(1 + i c_2 c_3)/4`` in this package's Majorana labelling; all
    eight nonzero matrix entries are 1/4.
    """
    mat = np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=complex
    ) / 4.0
    return FockOperator(ModeLayout.bipartite(1, 1), mat, copy=False)


def majorana_triple_state() -> FockOperator:
    """Uniform mixture over the ground space of three cyclically coupled Majoranas.

    One Majorana per party enters the coupling; the partner Majoranas are
    traced uniformly, leaving ``(1/8)[1 + (i/sqrt(3))(m1 m2 + m2 m3 + m3 m1)]``
    with ``m_j`` the first Majorana of mode ``j``.
    """
    layout = ModeLayout.tripartite()
    m1 = majorana_op(layout, 1).matrix
    m2 = majorana_op(layout, 3).matrix
    m3 = majorana_op(layout, 5).matrix
    mat = (np.eye(8) + 1j / np.sqrt(3.0) * (m1 @ m2 + m2 @ m3 + m3 @ m1)) / 8.0
    return FockOperator(layout, mat, copy=False)


def canonical_state(name: str, **params) -> FockOperator:
    """Density matrix of a named canonical state.

    Names: ``singlet``, ``werner`` (``p``), ``majorana_dimer``, ``w``, ``ghz``,
    ``majorana_triple``, ``psi_p`` (``p``), ``two_mode_pure`` and
    ``three_mode_pure`` (``lambdas``, ``parity``).
    """
    if name == "werner":
        p = float(params["p"])
        if not 0.0 <= p <= 1.0:
            raise StateValidationError(f"Werner parameter must be in [0, 1], got {p}")
        vec, layout = canonical_vector("singlet")
        mat = (1.0 - p) / 4.0 * np.eye(4) + p * np.outer(vec, vec.conj())
        return FockOperator(layout, mat, copy=False)
    if name == "majorana_dimer":
        return majorana_dimer_state()
    if name == "majorana_triple":
        return majorana_triple_state()
    vec, layout = canonical_vector(name, **params)
    return _density(layout, vec)


def biseparable_example(alpha: complex = 0.8) -> FockOperator:
    """Equal mixture of ``f_1^+ |Psi_+>`` and ``|Psi_->`` with
    ``|Psi_+-> = (1 +- alpha f_2^+ f_3^+)|0>`` (normalized).

    Biseparable across ``A`` vs ``BC`` for any ``alpha``, with entangled
    ``B(AC)`` and ``C(AB)`` cuts for ``alpha != 0``, yet the reduced BC state
    is separable.
    """
    norm = 1.0 / np.sqrt(1.0 + abs(alpha) ** 2)  # f_1^+ |Psi_+> is parity odd, |Psi_-> even
    top, layout = pure_vector_from_coeffs(PureCoeffs((0.0, norm * alpha, 0.0, norm), "odd"))
    psi_minus, _ = pure_vector_from_coeffs(PureCoeffs((norm, 0.0, -norm * alpha, 0.0), "even"))
    mat = 0.5 * (np.outer(top, top.conj()) + np.outer(psi_minus, psi_minus.conj()))
    return FockOperator(layout, mat, copy=False)


# -- random constructors ----------------------------------------------------------


def random_pure_vector(layout: ModeLayout, parity_sector: str, seed) -> np.ndarray:
    """Haar-uniform unit vector supported on one global parity sector."""
    if parity_sector not in PARITY_SECTORS:
        raise StateValidationError(f"parity_sector must be one of {PARITY_SECTORS}")
    rng = _rng(seed)
    signs = _sign_vector(layout.num_modes, layout.dim - 1)
    support = signs > 0 if parity_sector == "even" else signs < 0
    vec = np.zeros(layout.dim, dtype=complex)
    k = int(support.sum())
    vec[support] = rng.normal(size=k) + 1j * rng.normal(size=k)
    return _fix_phase(vec / np.linalg.norm(vec))


def random_pure(layout: ModeLayout, parity_sector: str, seed) -> FockOperator:
    """Density matrix of a Haar-random parity-sector pure state."""
    return _density(layout, random_pure_vector(layout, parity_sector, seed))


def _block_gaussian(draws: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Complex Gaussians ``draws[..., 0, :, :] + i draws[..., 1, :, :]``, 0 where not ``allowed``.

    ``draws`` is a ``(..., 2, d, d)`` stack of standard normals, such as
    ``rng.normal(size=(2, d, d))``; one call for a whole stack returns the
    numbers of consecutive per-matrix calls.  The two parts are written into
    one complex output, so no complex temporary sits beside the draws.
    """
    out = np.empty(draws.shape[:-3] + draws.shape[-2:], dtype=complex)
    out.real = draws[..., 0, :, :]
    out.imag = draws[..., 1, :, :]
    np.copyto(out, 0.0, where=~allowed)
    return out


def _normalised_gram(g: np.ndarray) -> np.ndarray:
    """``G G^+ / Tr(G G^+)`` for each matrix of a ``(..., d, d)`` stack."""
    mat = g @ g.conj().swapaxes(-1, -2)
    mat /= np.trace(mat, axis1=-2, axis2=-1)[..., None, None]
    return mat


def _parity_mask(num_modes: int) -> np.ndarray:
    """Entries a globally parity-even operator may hold: both indices of equal parity."""
    glob = _sign_vector(num_modes, (1 << num_modes) - 1)
    return np.equal.outer(glob, glob)


def _visibly_type_ii(mat: np.ndarray, num_modes: int, mask: int) -> np.ndarray:
    """Whether ``|[(-1)^{F_mask}, M]|_max > TYPE_II_THRESHOLD`` for each matrix of a stack."""
    return 2.0 * _parity_leak(mat, num_modes, mask) > TYPE_II_THRESHOLD


def random_density(
    layout: ModeLayout,
    seed,
    constraint: str = "any_physical",
    spec: SubsystemSpec | None = None,
) -> FockOperator:
    """Full-rank random physical density matrix ``G G^+ / Tr``.

    ``constraint`` is ``any_physical`` (globally parity-even), ``type_I``
    (additionally commutes with the spec's subsystem parity, built block
    diagonal in that eigenbasis) or ``type_II`` (guaranteed commutator
    max-norm above :data:`TYPE_II_THRESHOLD`, resampled otherwise).
    """
    rng = _rng(seed)
    allowed = _parity_mask(layout.num_modes)
    if constraint != "any_physical":
        if spec is None:
            raise LayoutError(f"constraint {constraint!r} requires a subsystem spec")
        spec = as_spec(spec)
        spec.validate(layout)
        if constraint == "type_I":
            sub = _sign_vector(layout.num_modes, spec.mask())
            allowed &= np.equal.outer(sub, sub)
        elif constraint != "type_II":
            raise ValueError(f"unknown constraint {constraint!r}")
    dim = layout.dim
    for _ in range(_RESAMPLE_BUDGET):
        mat = _normalised_gram(_block_gaussian(rng.normal(size=(2, dim, dim)), allowed))
        if constraint != "type_II" or _visibly_type_ii(mat, layout.num_modes, spec.mask()):
            return FockOperator(layout, mat, copy=False)
    raise SamplingError("type_II resampling budget exhausted")


def subsystem_parity_commutator_norm(rho: FockOperator, spec: SubsystemSpec) -> float:
    """Max-norm of ``[(-1)^{F_spec}, rho]``, NaN when an entry is not finite."""
    spec = as_spec(spec)
    spec.validate(rho.layout)
    return float(2.0 * _parity_leak(rho.matrix, rho.layout.num_modes, spec.mask()))


def random_separable(
    layout: ModeLayout,
    spec,
    num_terms: int,
    seed,
) -> FockOperator:
    """Convex mixture of graded products of local parity-even density matrices.

    ``spec`` is either a single subsystem spec (the complement forms the second
    factor) or an iterable of specs partitioning all modes.  Mixture weights
    are drawn uniformly from the simplex.
    """
    _check_count("num_terms", num_terms)
    rng = _rng(seed)
    if isinstance(spec, SubsystemSpec) or (spec and isinstance(next(iter(spec)), int)):
        first = as_spec(spec)
        parts = [first, first.complement(layout)]
    else:
        parts = [as_spec(s) for s in spec]
    covered = sorted(m for part in parts for m in part.target_modes)
    if covered != list(range(1, layout.num_modes + 1)):
        raise LayoutError("partition must cover every mode exactly once")
    build_order = tuple(m for part in parts for m in part.sorted_modes())
    weights = rng.dirichlet(np.ones(num_terms))
    dim = layout.dim
    total = np.zeros((dim, dim), dtype=complex)
    sub_layouts = [ModeLayout(len(part), ("A",) * len(part)) for part in parts]
    for w in weights:
        term = np.ones((1, 1), dtype=complex)
        for sub in sub_layouts:
            factor = random_density(sub, rng).matrix
            term = np.kron(factor, term)  # later parts occupy higher bits
        total += w * term
    if build_order != tuple(range(1, layout.num_modes + 1)):
        total = _permute_matrix(total, layout.num_modes, _inverse_order(build_order))
    return FockOperator(layout, total, copy=False)

