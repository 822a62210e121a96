"""Verification harness: the closed-form regression values, and randomized
checks of the transpose identities, LOCC monotonicity, the perturbative
trace-norm expansion and the type-II negativity conjecture.

Each check runs a number of independent seeded trials and returns a
:class:`CheckReport` whose ``passed`` field is exactly
``max_violation <= tolerance``.  Equalities are scored by their largest
elementwise or scalar deviation; inequalities by the largest negative slack.
Per-trial diagnostics (seeds, state fingerprints, measured values) are kept on
the report so a failure can be reproduced.
"""

from __future__ import annotations

import hashlib
import dataclasses
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SamplingError
from .fock import (
    MAX_MODES,
    FockOperator,
    ModeLayout,
    SubsystemSpec,
    _check_count,
    _check_nonnegative,
    _embedded,
    _gather_blocks,
    _graded_product,
    _hermitian_part,
    _parity_block_index,
    _require_density_stack,
    _require_even_stack,
    _sign_vector,
    embed_local,
)
from .measures import _pt_norms, _stacked_pt_norms, _tripartite_reports, log_negativity, \
    negativity, pi_abc
from .ptranspose import _check_flavor, _nonempty, _sector_projection, _signed_gather, _traced, \
    fermionic_pt, partial_trace
from .states import (
    _block_gaussian,
    _normalised_gram,
    _parity_mask,
    _rng,
    _visibly_type_ii,
    canonical_state,
    random_density,
    random_pure,
)

_GAP_GUARD = 5e-3
_INSTANCE_BUDGET = 500

#: Bytes of the matrices that one stack of a check holds, each trial or sample
#: counted at its own size: a :func:`_bucketed` bucket (8 LOCC trials of n = 4,
#: 170 perturbation trials of n = 3) or a chunk of ``conjecture_scan`` samples
#: (2048 at d = 4).  Their temporaries take a few times these bytes.  A quarter
#: of this budget ran the default ``verify locc`` 40-55 % longer, and
#: ``conjecture_scan(seed=7)`` 20 % longer (120 against 100 ms, median of 15).
_STACK_BYTES = 1 << 19


@dataclasses.dataclass
class CheckReport:
    """Outcome of one randomized check; ``passed == (max_violation <= tolerance)``."""

    check_name: str
    trials: int
    max_violation: float
    tolerance: float
    passed: bool
    diagnostics: list[dict] = dataclasses.field(default_factory=list)

    def to_dict(self) -> dict:
        """The fields, in order; the diagnostics are the report's own, not a deep copy."""
        return dict(vars(self))


def _report(name: str, trials: int, max_violation: float, tolerance: float,
            diagnostics: list[dict]) -> CheckReport:
    return CheckReport(
        check_name=name,
        trials=trials,
        max_violation=float(max_violation),
        tolerance=float(tolerance),
        passed=bool(max_violation <= tolerance),
        diagnostics=diagnostics,
    )


def _trial_report(name: str, seed, tolerance: float, draws, build) -> CheckReport:
    """The report of the trials that ``draws(rng)`` yields, scored by ``build``
    (:func:`_scored_trials`), each stamped with its trial and the seed."""
    scored = _scored_trials(_rng(seed), draws, build)
    base_seed = seed if isinstance(seed, int) else None
    diagnostics = [{**diag, "trial": t, "seed": base_seed} for t, (_, diag) in enumerate(scored)]
    worst = max([0.0, *(dev for dev, _ in scored)])
    return _report(name, len(scored), worst, tolerance, diagnostics)


def _scored_trials(rng: np.random.Generator, draws, build) -> list[tuple[float, dict]]:
    """``(worst violation, diagnostics)`` of each trial that ``draws(rng)`` yields, scored by
    ``build`` in buckets (:func:`_bucketed`).  If anything raises, the trials are replayed from
    ``rng``'s state at this call, each built as soon as it is drawn (:func:`_replayed`)."""

    def run(budget: int) -> list[tuple[float, dict]]:
        return _bucketed(draws(rng), budget, build)

    return _replayed(lambda: run(_STACK_BYTES), _rewound(rng, lambda: run(0)))


def _replayed(stacked, replay):
    """``stacked()``, the values of a stacked run; if it raises or returns ``None``, ``replay()``.

    The one replay rule, of the draw order: ``replay`` (:func:`_rewound`)
    draws again from the generator state before the stacked run and runs the
    trials or samples one at a time, so it raises the per-call error first.
    """
    try:
        found = stacked()
    except Exception:  # the replay raises it again, after any earlier per-call error
        found = None
    return replay() if found is None else found


def _rewound(rng: np.random.Generator, replay):
    """``replay``, from ``rng``'s state at this call: it draws again what a stacked run drew."""
    state = rng.bit_generator.state

    def rewound():
        rng.bit_generator.state = state
        return replay()
    return rewound


def _bucketed(drawn, budget: int, build) -> list[tuple[float, dict]]:
    """``(worst violation, diagnostics)`` of each trial that ``drawn`` yields, built in buckets.

    ``drawn`` makes each trial's draws, a dict with its ``n``, its ``m_a`` and
    its ``bytes``, the bytes its bucket holds for it, with every generator call
    of a per-call trial in order.  ``build(n, m_a, trials)`` scores the bucket
    of one ``(n, m_A)`` as soon as its trials fill ``budget`` bytes, or at one
    trial if one overfills them, and the others when the trials run out.  At
    ``budget`` 0 each trial is built as soon as it is drawn.
    """
    scored, buckets = [], {}

    def flush(key: tuple[int, int]) -> None:
        ks, trials = zip(*buckets.pop(key))
        for k, result in zip(ks, build(*key, trials)):
            scored[k] = result

    for k, t in enumerate(drawn):
        scored.append(None)
        key = (t["n"], t["m_a"])
        buckets.setdefault(key, []).append((k, t))
        if len(buckets[key]) == max(1, budget // t["bytes"]):
            flush(key)
    for key in list(buckets):
        flush(key)
    return scored


def _fingerprint(matrix: np.ndarray) -> str:
    return hashlib.sha1(np.round(matrix, 12).tobytes()).hexdigest()[:12]


# -- random physical operators -----------------------------------------------------


def _even_hermitians(normals: np.ndarray, num_modes: int) -> np.ndarray:
    """Hermitian parts of the parity-even Gaussians of a ``(..., 2, d, d)`` stack of normals."""
    return _hermitian_part(_block_gaussian(normals, _parity_mask(num_modes)))


def _parity_eigh(herm: np.ndarray, num_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of each parity-even Hermitian of a ``(..., d, d)`` stack, solved on its
    two global-parity blocks and merged back in ascending eigenvalue order.

    Each eigenvector is exactly zero off its sector, so every instrument built
    from them has exactly zero off-parity blocks, and so has each state it acts
    on: the norms of such states take the block path (:func:`fneg.fock._exact`).
    """
    evals, blocks = np.linalg.eigh(_gather_blocks(herm, num_modes))
    rows, cols = _parity_block_index(num_modes)
    vecs = np.zeros(herm.shape, dtype=complex)
    vecs[..., rows, cols] = blocks  # each sector's eigenvectors in its own columns
    values = np.empty(herm.shape[:-1])
    values[..., cols[:, 0]] = evals
    order = np.argsort(values, axis=-1)
    return np.take_along_axis(values, order, -1), np.take_along_axis(vecs, order[..., None, :], -1)


def _unitaries(normals: np.ndarray, num_modes: int) -> np.ndarray:
    """``exp(i H)`` for the Hermitian ``H`` of each member of :func:`_even_hermitians`."""
    evals, vecs = _parity_eigh(_even_hermitians(normals, num_modes), num_modes)
    return (vecs * np.exp(1j * evals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _draw_projector_set(rng: np.random.Generator, num_modes: int) -> list:
    """The draws of one projector set: its Hermitian's normals, group count (1-3), column groups."""
    dim = 1 << num_modes
    normals = rng.normal(size=(2, dim, dim))
    n_groups = int(rng.integers(1, 4))
    return [normals, n_groups, rng.integers(0, n_groups, size=dim)]


def _projector_set(vecs: np.ndarray, n_groups: int, assignment: np.ndarray) -> list[np.ndarray]:
    """The projectors onto each nonempty group of the columns of ``vecs``."""
    groups = (vecs[:, assignment == g] for g in range(n_groups))
    return [cols @ cols.conj().T for cols in groups if cols.shape[1]]


def _parity_projectors(layout: ModeLayout, modes: tuple[int, ...]) -> list[np.ndarray]:
    """The even/odd parity projectors ``(1 +- (-1)^{F_modes})/2`` on ``layout``'s Fock space."""
    signs = _sign_vector(layout.num_modes, SubsystemSpec(modes).mask())
    return [np.diag(((1.0 + s * signs) / 2.0).astype(complex)) for s in (1.0, -1.0)]


# -- identity suite ---------------------------------------------------------------


#: The identities of ``verify identities``, in the order that breaks ties.
_IDENTITIES = ("rho_xb_right", "rho_xb_left", "rho_xa_right", "rho_xa_left", "rho_xaxb_right",
               "rho_xaxb_left", "sandwich_ta", "sandwich_tb", "successive_plain", "successive_xb",
               "successive_xa", "successive_xaxb", "successive_sandwich", "double_ta",
               "identity_fixed")


def _draw_identity_trial(rng: np.random.Generator, n: int) -> dict:
    """Every generator call of one identity trial in the per-call order: ``m_A``, then the
    normals of rho, and of X and Y on A and then on B.  Its bucket holds about 16 of its
    n-mode matrices for it: rho, the eight embedded locals and the products of an input."""
    m_a = int(rng.integers(1, n))
    return {"n": n, "m_a": m_a, "bytes": 1 << (2 * n + 8), **{
        name: rng.normal(size=(2, 1 << m, 1 << m)) for name, m in (
            ("rho", n), ("x_a", m_a), ("y_a", m_a), ("x_b", n - m_a), ("y_b", n - m_a))}}


def _identity_bucket(n: int, m_a: int, trials: Sequence[dict]) -> list[tuple[float, dict]]:
    """``(worst deviation, diagnostics)`` of each drawn trial of one ``(n, m_A)`` bucket.

    Each of the nine transpose inputs is one stack of the bucket's trials:
    built, checked as ``fermionic_pt`` checks it, transposed over A and scored,
    transposed for its successive and ``sandwich_tb`` checks, and released
    before the next is built.  The other per-call checks are of these matrices
    or of their transposes, signed permutations that keep the parity leak.
    """
    layout = ModeLayout.bipartite(m_a, n - m_a)
    spec_a, spec_b = layout.spec("A"), layout.spec("B")
    table = np.empty((len(trials), len(_IDENTITIES)))

    def pt(stack: np.ndarray, spec: SubsystemSpec, modes: int = n) -> np.ndarray:
        return _signed_gather(stack, modes, spec, fermionic=True)

    def score(name: str, found: np.ndarray, want: np.ndarray) -> None:
        table[:, _IDENTITIES.index(name)] = np.abs(found - want).max(axis=(-2, -1))

    r = _gram(np.stack([t.pop("rho") for t in trials]), n)
    embedded = []  # X, Y and their full transposes on each side, each a stack of the trials
    for spec, names in ((spec_a, ("x_a", "y_a")), (spec_b, ("x_b", "y_b"))):
        m = len(spec)
        local = _block_gaussian(np.stack([[t.pop(name) for t in trials] for name in names]),
                                _parity_mask(m))
        _require_even_stack(ModeLayout(m, ("A",) * m), local,
                            lambda op: embed_local(op, layout, spec.target_modes))
        local_t = pt(local, SubsystemSpec(tuple(range(1, m + 1))), m)
        embedded.append(_embedded(np.concatenate([local, local_t]), layout, spec.target_modes))
    (ea, eya, ea_t, eya_t), (eb, eyb, eb_t, eyb_t) = embedded

    inputs = (  # each transpose input; the identity that scores its transpose over A and that
        # identity's prediction from t_a, rho's transpose; its successive check, if any; and
        # the prediction of its transpose over B, if scored
        (lambda: r, None, None, "successive_plain", None),
        (lambda: r @ eb, "rho_xb_right", lambda: t_a @ eb, "successive_xb", None),
        (lambda: eb @ r, "rho_xb_left", lambda: eb @ t_a, None, None),
        (lambda: r @ ea, "rho_xa_right", lambda: ea_t @ t_a, "successive_xa", None),
        (lambda: ea @ r, "rho_xa_left", lambda: t_a @ ea_t, None, None),
        (lambda: r @ ea @ eb, "rho_xaxb_right", lambda: ea_t @ t_a @ eb, "successive_xaxb", None),
        (lambda: ea @ eb @ r, "rho_xaxb_left", lambda: eb @ t_a @ ea_t, None, None),
        (lambda: ea @ eb @ r @ eya @ eyb, "sandwich_ta", lambda: eya_t @ eb @ t_a @ ea_t @ eyb,
         "successive_sandwich", lambda: ea @ eyb_t @ pt(r, spec_b) @ eya @ eb_t),
        (lambda: np.eye(layout.dim, dtype=complex)[None], "identity_fixed",
         lambda: np.eye(layout.dim), None, None),
    )
    for make, name, want, successive, want_b in inputs:
        x = make()
        _require_even_stack(layout, x, lambda op: fermionic_pt(op, spec_a))
        t = pt(x, spec_a)
        if name:
            score(name, t, want())
        else:
            t_a = t
        if successive:
            t = pt(t, spec_b)
            score(successive, t, pt(x, SubsystemSpec(tuple(range(1, n + 1)))))
        x_b = pt(x, spec_b) if want_b else None
        del x, t  # before the prediction over B and the next input
        if want_b:
            score("sandwich_tb", x_b, want_b())
            del x_b
    p_a = _sign_vector(n, spec_a.mask())
    score("double_ta", pt(t_a, spec_a), p_a[:, None] * r * p_a[None, :])
    worst = table.argmax(axis=1)
    return [(float(row[w]), {"n": n, "m_a": m_a, "state": _fingerprint(rho),
                             "max_violation": float(row[w]), "worst_identity": _IDENTITIES[w]})
            for row, w, rho in zip(table, worst, r)]


def _checked_modes(modes) -> tuple[int, ...]:
    """``modes`` (an integer or an iterable) as a non-empty tuple of mode counts in 2..MAX_MODES."""
    modes = (modes,) if isinstance(modes, (int, np.integer)) else tuple(modes)
    if not modes or not all(isinstance(m, (int, np.integer)) and 2 <= m <= MAX_MODES for m in modes):
        raise ValueError(f"need at least one integer mode count, each in 2..{MAX_MODES}, got {modes}")
    return modes


def check_identity_suite(
    seed=0, trials: int = 100, modes=(2, 3, 4), tolerance: float = 1e-11
) -> CheckReport:
    """Elementwise check of the local-operator transpose identities.

    Covers the one-sided and sandwich product rules for both subsystem
    transposes, consistency of successive partial transposes with the full
    transpose, the parity-conjugation involution, and invariance of the
    identity operator.

    Trials are drawn as per call, and each ``(n, m_A)`` bucket of them is
    built and scored on stacks, 24 signed gathers whatever its size
    (:func:`_trial_report`, :func:`_identity_bucket`).  Every deviation is bit
    for bit the per-call one, and a replay raises the per-call error of the
    first parity-odd local operator or transpose input (``embed_local``'s or
    ``fermionic_pt``'s).
    """
    _check_count("trials", trials)
    _check_nonnegative("tolerance", tolerance)
    modes = _checked_modes(modes)
    return _trial_report("identity_suite", seed, tolerance, lambda rng: (
        _draw_identity_trial(rng, modes[t % len(modes)]) for t in range(trials)), _identity_bucket)


# -- LOCC monotonicity -------------------------------------------------------------


def _measured_branches(evolved: np.ndarray, big: ModeLayout, r_mode: int):
    """The branches of measuring the occupation of ``r_mode`` on each state of a stack on ``big``.

    The states are validated as ``parity_project`` validates one, and measured
    by its kernel and ``partial_trace``'s.  Returns the branches' owners (the
    index of their state), weights and reduced states, a stack, each state's
    branches in a row, the even one first; and each state's parity leak and
    Hermiticity residual, which the validation read.
    """
    residuals = _require_density_stack(evolved, big.num_modes)
    keep = SubsystemSpec(tuple(m for m in range(1, big.num_modes + 1) if m != r_mode))
    owners, weights, states = [], [], []
    for sector in ("even", "odd"):  # |0><0| and |1><1| of one mode are its parity projectors
        projected, found = _sector_projection(evolved, big.num_modes, 1 << (r_mode - 1), sector)
        kept, projected = _nonempty(projected, found)
        owners.append(kept)
        weights.append(found[kept])
        states.append(_traced(projected, big.num_modes, keep))
    order = np.argsort(np.concatenate(owners), kind="stable")
    return (np.concatenate(owners)[order], np.concatenate(weights)[order],
            np.concatenate(states)[order], np.array(residuals))


class _Jobs(NamedTuple):
    """Norms to take: a stack of states on one layout, with one target, in check order."""

    owners: np.ndarray  # the trial of each state
    states: np.ndarray | Callable[[], np.ndarray]  # or a function that forms them, checked
    layout: ModeLayout
    spec: SubsystemSpec
    residuals: np.ndarray | None = None  # each state's parity leak and residual, if validated


def _formed(job: _Jobs) -> np.ndarray:
    """A job's stack of states, formed now if it is a function."""
    return job.states() if callable(job.states) else job.states


def _job_norms(jobs: list[_Jobs]) -> list[np.ndarray]:
    """The ``|rho^{T_A}|_1`` of each job's states, one array per job.

    The jobs are stacked by mode count, target mask and whether their states
    come validated, and each stack is formed, checked, transposed and solved
    once by :func:`fneg.measures._pt_norms`: every norm equals the one behind
    ``negativity`` bit for bit.  Each stack's states are released from
    ``jobs`` once stacked, so a bucket holds the states of the stacks still to
    solve.  A stack that fails a check raises the error of its first failing
    state, as ``negativity`` raises it; :func:`_scored_trials` then replays the
    trials one at a time, so the error comes in trial order.
    """
    groups: dict = {}
    for i, job in enumerate(jobs):
        key = (job.layout.num_modes, job.spec.mask(), job.residuals is not None)
        groups.setdefault(key, []).append(i)
    norms = {}
    for (n, _, checked), members in groups.items():
        parts = [_formed(jobs[i]) for i in members]
        ends = np.cumsum([len(states) for states in parts])[:-1]
        stack = parts[0] if len(parts) == 1 else np.concatenate(parts)
        del parts
        for i in members:  # the stack holds their states now
            jobs[i] = jobs[i]._replace(states=None)
        residuals = np.concatenate([jobs[i].residuals for i in members], -1) if checked else None
        solved = _pt_norms(stack, n, jobs[members[0]].spec, residuals=residuals)
        norms.update(zip(members, np.split(solved, ends)))
        del stack
    return [norms[i] for i in range(len(jobs))]


def _draw_locc_trial(rng: np.random.Generator) -> dict:
    """Every generator call of one LOCC trial in the per-call order; none needs a built value.
    Its bucket holds it at its largest states, the stacked ones of (e) on n + 2 modes."""
    n = int(rng.integers(2, 5))
    m_a = int(rng.integers(1, n))
    draw = {name: rng.normal(size=(2, 1 << m, 1 << m))
            for name, m in (("rho", n), ("u_a", m_a), ("u_b", n - m_a), ("append", 1))}
    coin = rng.integers(0, 2)
    draw["proj"] = [_draw_projector_set(rng, m) for m in (m_a, n - m_a)] if coin else None
    draw.update({name: rng.normal(size=(2, 1 << m, 1 << m))
                 for name, m in (("sigma", 1), ("u_ar", m_a + 1), ("other", 2))})
    return {"n": n, "m_a": m_a, "bytes": 1 << (2 * n + 8), **draw}


def _gram(normals: np.ndarray, num_modes: int) -> np.ndarray:
    """``random_density``'s state from each member of a ``(..., 2, d, d)`` stack of normals."""
    return _normalised_gram(_block_gaussian(normals, _parity_mask(num_modes)))


def _build_locc_group(n: int, m_a: int,
                      trials: Sequence[dict]) -> tuple[list[_Jobs], np.ndarray, np.ndarray]:
    """Build the drawn trials of one ``(n, m_A)`` bucket as stacks.

    Each state, unitary and projector set is made from the stacked draws of
    the bucket: one ``G G^+`` normalisation or ``eigh`` per kind.  The
    unitaries and projectors are exactly zero between the parity sectors
    (:func:`_parity_eigh`), and each state formed by a product is replaced by
    its Hermitian part, which moves it by round-off: so every state has exact
    blocks and residual 0.0, and each norm is ``|eigvalsh|`` of two half-size
    blocks (:func:`fneg.measures._spectra`), not an SVD.  Returns the
    norm jobs of stages (a) to (e), in check order, ``rho``'s first, and the
    weights of the projective outcomes and of the ancilla branches, in the
    order of their jobs' states.  The validated evolved states come with the
    residuals that :func:`_measured_branches` read.  The parity checks of
    ``embed_local`` and ``graded_tensor`` run on the stacks, in the per-call
    order (:func:`fock._require_even_stack`).  Each stage's intermediates are
    released once its states are built, and the stacked states of (e), the
    largest, are formed only when solved: (e)'s check is of the partner alone.
    """
    layout = ModeLayout.bipartite(m_a, n - m_a)
    spec_a, spec_b = layout.spec("A"), layout.spec("B")
    one, two = ModeLayout(1, ("A",)), ModeLayout.bipartite(1, 1)

    def stack(name: str) -> np.ndarray:  # popped: the norms are taken without the draws
        return np.stack([t.pop(name) for t in trials])

    def embedded(local: np.ndarray, target: ModeLayout, modes: tuple[int, ...]) -> np.ndarray:
        _require_even_stack(ModeLayout(len(modes), ("A",) * len(modes)), local)
        return _embedded(local, target, modes)

    def graded(rhs_layout: ModeLayout, rhs: np.ndarray) -> tuple[ModeLayout, np.ndarray]:
        _require_even_stack(rhs_layout, rhs)  # rho, the left operand, is checked once below
        return _graded_product(layout, rhs_layout, rho, rhs)

    rho = _gram(stack("rho"), n)

    # (a) invariance under local parity-even unitaries
    u = (embedded(_unitaries(stack("u_a"), m_a), layout, spec_a.target_modes)
         @ embedded(_unitaries(stack("u_b"), n - m_a), layout, spec_b.target_modes))
    rotated = _hermitian_part(u @ rho @ u.conj().swapaxes(-1, -2))
    del u  # each stage's intermediates go once its states are built

    # (b) appending an unentangled ancilla to A
    _require_even_stack(layout, rho)
    big, appended = graded(one, _gram(stack("append"), 1))
    appended = _hermitian_part(appended)  # the ancilla's diagonal carries imaginary round-off

    # (c) complete local projective measurements, by random projector sets or by parity
    drawn = [t["proj"] for t in trials if t["proj"]]
    sides = []  # each drawn trial's embedded projectors on A, then on B
    for side, spec in enumerate((spec_a, spec_b) if drawn else ()):
        vecs = _parity_eigh(_even_hermitians(np.stack([p[side][0] for p in drawn]), len(spec)),
                            len(spec))[1]
        sets = [_projector_set(v, *p[side][1:]) for v, p in zip(vecs, drawn)]
        flat = iter(embedded(np.stack([p for s in sets for p in s]), layout, spec.target_modes))
        sides.append([[next(flat) for _ in s] for s in sets])
    chosen = zip(*sides)
    parity = [_parity_projectors(layout, spec.target_modes) for spec in (spec_a, spec_b)]
    pairs = [(i, ea, eb) for i, t in enumerate(trials)
             for proj_a, proj_b in [next(chosen) if t["proj"] else parity]
             for ea in proj_a for eb in proj_b]
    paired = np.array([i for i, _, _ in pairs])
    ops = np.stack([ea for _, ea, _ in pairs]) @ np.stack([eb for _, _, eb in pairs])
    del sides, chosen, pairs
    projected = _hermitian_part(ops @ rho[paired] @ ops)
    del ops
    weights = np.real(np.trace(projected, axis1=-2, axis2=-1))
    kept, outcomes = _nonempty(projected, weights)
    del projected

    # (d) entangling an ancilla into A, measuring it, with and without averaging
    _, sigma = graded(one, _gram(stack("sigma"), 1))
    tilde_spec = big.spec("A")
    u_ar = embedded(_unitaries(stack("u_ar"), m_a + 1), big, tilde_spec.target_modes)
    evolved = _hermitian_part(u_ar @ sigma @ u_ar.conj().swapaxes(-1, -2))
    del sigma, u_ar
    owners, branch_weights, reduced, checked = _measured_branches(
        evolved, big, tilde_spec.target_modes[-1])
    mixed = np.zeros_like(rho)  # each trial's weighted branches, added in branch order
    np.add.at(mixed, owners, branch_weights[:, None, None] * reduced)

    # (e) additivity under stacking
    other = _gram(stack("other"), 2)
    _require_even_stack(two, other)
    wide = ModeLayout.bipartite(m_a + 1, n - m_a + 1)

    def stacked() -> np.ndarray:  # formed when solved, after every build check
        return _graded_product(layout, two, rho, other)[1]

    every = np.arange(len(trials))
    return [_Jobs(every, rho, layout, spec_a),
            _Jobs(every, rotated, layout, spec_a),
            _Jobs(every, appended, big, tilde_spec),
            _Jobs(paired[kept], outcomes, layout, spec_a),
            _Jobs(every, evolved, big, tilde_spec, checked),
            _Jobs(owners, reduced, layout, spec_a),
            _Jobs(every, mixed, layout, spec_a),
            _Jobs(every, stacked, wide, wide.spec("A")),
            _Jobs(every, other, two, two.spec("A"))], weights[kept], branch_weights


#: The checks of ``verify locc``, in the order that breaks ties.
_LOCC_CHECKS = ("local_unitary", "ancilla_append", "projective", "unilocal_unitary",
                "ancilla_trace_selective", "ancilla_trace_averaged", "ancilla_trace_logneg",
                "additivity")


def _score_locc_bucket(n: int, m_a: int, jobs: list[_Jobs], norms: list[np.ndarray],
                       states: list[str], weights: np.ndarray,
                       branch_weights: np.ndarray) -> list[tuple[float, dict]]:
    """``(worst violation, diagnostics)`` of each trial of a built bucket, from its norms."""
    # the jobs of rho, rotated, appended, outcomes, evolved, branches, mixed, stacked, other
    neg = [(x - 1.0) / 2.0 for x in norms]
    base = neg[0]

    def averaged(job: int, values: np.ndarray) -> np.ndarray:
        return np.bincount(jobs[job].owners, weights=values, minlength=len(base))

    viol = np.stack([
        np.abs(neg[1] - base),
        np.abs(neg[2] - base),
        np.maximum(0.0, averaged(3, weights * neg[3]) - base),
        np.abs(neg[4] - base),
        np.maximum(0.0, averaged(5, branch_weights * neg[5]) - base),
        np.maximum(0.0, neg[6] - base),
        np.maximum(0.0, averaged(5, branch_weights * np.log(norms[5])) - np.log(2.0 * base + 1.0)),
        np.abs(np.log(norms[7]) - np.log(norms[0]) - np.log(norms[8])),
    ], axis=1)
    worst = viol.argmax(axis=1)
    return [(float(row[w]), {"n": n, "m_a": m_a, "state": state,
                             "base_negativity": float(b), "max_violation": float(row[w]),
                             "worst_check": _LOCC_CHECKS[w]})
            for row, w, b, state in zip(viol, worst, base, states)]


def _locc_bucket(n: int, m_a: int, trials: Sequence[dict]) -> list[tuple[float, dict]]:
    """The pairs of a bucket's trials: every stage is built, and so every build
    check runs, before any norm is taken on stacks (:func:`_job_norms`)."""
    jobs, *weights = _build_locc_group(n, m_a, trials)
    states = [_fingerprint(rho) for rho in jobs[0].states]  # before the norms release them
    return _score_locc_bucket(n, m_a, jobs, _job_norms(jobs), states, *weights)


def check_locc_monotonicity(seed=0, trials: int = 200, tolerance: float = 1e-10) -> CheckReport:
    """Local-unitary invariance, ancilla append/trace, projective measurements,
    and additivity, scored by equality deviation or negative inequality slack.

    Trials are drawn one at a time into a bucket per ``(n, m_A)``, and each
    bucket is built, solved and scored on stacks (:func:`_trial_report`,
    :func:`_locc_bucket`).  The values equal one ``negativity`` or
    ``log_negativity`` call per state bit for bit.  If anything raises, the
    whole check is replayed one trial at a time, and a trial's stack that fails
    a check raises the error of its first failing state.  So a trial's build
    errors come before its norm errors, and a trial with one fault raises the
    per-call error.  The ancilla is measured with the kernels of
    :func:`fneg.ptranspose.parity_project`, and every measurement drops an
    outcome of weight at most ``FLAG_TOL``, ``parity_project``'s empty-sector
    rule.
    """
    _check_count("trials", trials)
    _check_nonnegative("tolerance", tolerance)
    return _trial_report("locc_monotonicity", seed, tolerance,
                         lambda rng: (_draw_locc_trial(rng) for _ in range(trials)), _locc_bucket)


# -- perturbative expansion --------------------------------------------------------


def _perturbation_instance(rng: np.random.Generator, m: int, eps_max: float):
    """Sample a separable base plus odd perturbation with spectral-gap guards.

    The local factors are mixed with the maximally mixed state to keep them
    well conditioned; near-degenerate or small scaled eigenvalues (which blow
    up the perturbative denominators or threaten positivity at finite epsilon)
    trigger resampling.
    """
    sub_layout = ModeLayout(m, ("A",) * m)
    sub = 1 << m
    eye = np.eye(sub) / sub
    for _ in range(_INSTANCE_BUDGET):
        w = rng.dirichlet((1.0, 1.0))
        if w.min() < 0.2:
            continue
        rho0 = 0.5 * random_density(sub_layout, rng).matrix + 0.5 * eye
        rho1 = 0.5 * random_density(sub_layout, rng).matrix + 0.5 * eye
        mu = np.linalg.eigvalsh(rho0)
        nu = np.linalg.eigvalsh(rho1)
        scaled = np.concatenate([w[0] * mu, w[1] * nu])
        if scaled.min() < 1.5 * eps_max:
            continue
        gaps = np.abs(scaled[:, None] - scaled[None, :])[
            ~np.eye(scaled.size, dtype=bool)
        ]
        if gaps.min() < _GAP_GUARD:
            continue
        signs = _sign_vector(m, sub - 1)
        delta = _block_gaussian(rng.normal(size=(2, signs.size, signs.size)),
                                np.not_equal.outer(signs, signs))
        delta /= np.linalg.norm(delta)
        return w, rho0, rho1, delta
    raise SamplingError("perturbation instance resampling budget exhausted")


def perturbed_state(
    w: np.ndarray, rho0: np.ndarray, rho1: np.ndarray, delta: np.ndarray, eps: float
) -> FockOperator:
    """``rho_sep + eps * rho_off`` on one A mode plus the remainder modes."""
    sub = rho0.shape[0]
    m = sub.bit_length() - 1
    mat = np.empty((sub, 2, sub, 2), dtype=complex)  # [row, n_1 of the row, column, n_1 of it]
    mat[:, 0, :, 0] = w[0] * rho0
    mat[:, 1, :, 1] = w[1] * rho1
    mat[:, 1, :, 0] = eps * delta
    mat[:, 0, :, 1] = eps * delta.conj().T
    return FockOperator(ModeLayout(1 + m, ("A",) + ("B",) * m), mat.reshape(2 * sub, 2 * sub),
                        copy=False)


def trace_norm_prediction(
    w: np.ndarray, rho0: np.ndarray, rho1: np.ndarray, delta: np.ndarray,
    eps: float | Sequence[float],
) -> float | list[float]:
    """Second-order prediction ``1 + 2 eps^2 sum |<psi_j|d|phi_k>|^2/(w0 mu_j + w1 nu_k)``.

    ``eps`` may be a sequence: its predictions come from one ``eigh`` of each
    of ``rho0`` and ``rho1``, which do not depend on it.
    """
    mu, psi = np.linalg.eigh(rho0)
    nu, phi = np.linalg.eigh(rho1)
    amp = psi.conj().T @ delta @ phi
    denom = w[0] * mu[:, None] + w[1] * nu[None, :]
    total = float(np.sum(np.abs(amp) ** 2 / denom))
    if np.ndim(eps):
        return [1.0 + 2.0 * e**2 * total for e in eps]
    return 1.0 + 2.0 * eps**2 * total


def check_perturbation_expansion(
    seed=0,
    trials: int = 50,
    epsilons=(1e-2, 5e-3, 2.5e-3),
    ratio_bounds: tuple[float, float] = (6.0, 10.0),
    min_pass_fraction: float = 0.9,
) -> CheckReport:
    """Residual scaling of the trace-norm expansion around separable states.

    For each instance the deviation between the exact trace norm and the
    second-order prediction is evaluated along the epsilon sequence and the
    consecutive halving ratios are required to sit inside ``ratio_bounds``.
    ``max_violation`` is the fraction of instances whose ratios escape the
    bounds; the check passes when at most ``1 - min_pass_fraction`` fail.

    Note: on clean instances the measured halving ratio concentrates near 16,
    i.e. the residual is quartic, not cubic.  The spectrum of
    ``rho^{T_A} (rho^{T_A})^+`` is an even function of the perturbation
    strength (conjugation by the subsystem parity operator flips its sign), so
    every odd-order correction vanishes identically and the stated cubic
    bracket cannot be met; the report carries the measured ratios.

    Trial ``t`` draws an instance on ``1 + t % 2`` remainder modes, as a trial of
    ``(n, m_A) = (2 + t % 2, 1)`` of the shared trial driver (:func:`_scored_trials`):
    the ε states of a bucket's trials are checked and solved as one stack
    (:func:`_perturbation_bucket`), each norm bit for bit
    ``trace_norm(fermionic_pt(...))``, and a replay raises the per-call error.
    """
    _check_count("trials", trials)
    if not 0.0 <= min_pass_fraction <= 1.0:  # NaN fails too
        raise ValueError(f"min_pass_fraction must be in [0, 1], got {min_pass_fraction!r}")
    epsilons = tuple(float(e) for e in epsilons)
    # 0 < each epsilon < the one before it < inf, so every one is finite and positive; NaN fails
    if len(epsilons) < 2 or not all(0 < nxt < prev < np.inf
                                    for prev, nxt in zip(epsilons, epsilons[1:])):
        raise ValueError(f"epsilons must be a finite decreasing positive sequence, got {epsilons}")
    if not -np.inf < ratio_bounds[0] <= ratio_bounds[1] < np.inf:  # NaN fails too
        raise ValueError(f"ratio_bounds must be finite with lo <= hi, got {ratio_bounds!r}")
    scored = _scored_trials(_rng(seed), lambda rng: (
        {"n": n, "m_a": 1, "bytes": 16 * len(epsilons) * 4**n,  # its ε states
         "instance": _perturbation_instance(rng, n - 1, epsilons[0])}
        for n in (2 + t % 2 for t in range(trials))), lambda n, _, bucket: _perturbation_bucket(
            n, bucket, epsilons, ratio_bounds))
    diagnostics = [{"trial": t, **diag} for t, (_, diag) in enumerate(scored)]
    fail_fraction = sum(failed for failed, _ in scored) / trials
    return _report(
        "perturbation_expansion", trials, fail_fraction, 1.0 - min_pass_fraction, diagnostics
    )


def _perturbation_bucket(n: int, trials: Sequence[dict], epsilons: tuple[float, ...],
                         ratio_bounds: tuple[float, float]) -> list[tuple[float, dict]]:
    """``(1.0 if its ratios escape ratio_bounds else 0.0, diagnostics)`` of each drawn trial of
    one bucket on ``n`` modes: each trial's predictions, then the norms of every trial's ε
    states from one :func:`fneg.measures._pt_norms` stack, checked as density matrices."""
    instances = [t["instance"] for t in trials]
    predicted = [trace_norm_prediction(*instance, epsilons) for instance in instances]
    stack = np.stack([perturbed_state(*instance, eps).matrix
                      for instance in instances for eps in epsilons])
    actual = _pt_norms(stack, n, SubsystemSpec((1,))).reshape(len(trials), -1).tolist()
    scored = []
    for norms, predictions in zip(actual, predicted):
        residuals = [abs(norm - prediction) for norm, prediction in zip(norms, predictions)]
        ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
        ok = all(ratio_bounds[0] <= r <= ratio_bounds[1] for r in ratios)
        scored.append((0.0 if ok else 1.0, {"m_rest": n - 1, "residuals": residuals,
                                            "ratios": ratios, "within_bounds": ok}))
    return scored


# -- conjecture and inequality scans ------------------------------------------------


def _scan_sequential(rng, configs, start: int, stop: int):
    """Matrices and negativities of samples ``start .. stop-1``, one ``negativity`` call each."""
    mats, negs = [], []
    for t in range(start, stop):
        layout, _ = configs[t % len(configs)]
        spec = layout.spec("A")
        rho = random_density(layout, rng, constraint="type_II", spec=spec)
        mats.append(rho.matrix)
        negs.append(negativity(rho, spec))
    return mats, np.array(negs)


def _scan_stacked(rng, configs, start: int, stop: int):
    """What :func:`_scan_sequential` returns, each stage run once per stack of one config's samples.

    One ``rng.normal`` call returns the numbers of the per-sample draws, in
    their order, and every stage is the per-sample stage's kernel on a stack,
    so each member equals its sequential sample bit for bit.  ``None`` when any
    member would be resampled as not type II.  A member that fails a check of
    ``require_density_matrix`` raises its per-call error in the norm kernel
    (:func:`fneg.measures._pt_norms`), and the chunk is replayed.
    """
    cycle = np.arange(start, stop) % len(configs)
    sizes = np.array([2 * layout.dim ** 2 for layout, _ in configs])[cycle]
    offsets = np.cumsum(sizes) - sizes
    draws = rng.normal(size=int(sizes.sum()))
    normals = {}  # each config's members and rows of draws, copied out before the draws go
    for c, (layout, _) in enumerate(configs):
        members = np.flatnonzero(cycle == c)
        if members.size:
            normals[c] = members, sliding_window_view(draws, 2 * layout.dim ** 2)[offsets[members]]
    del draws
    mats = [None] * (stop - start)
    negs = np.empty(stop - start)
    for c in list(normals):
        members, rows = normals.pop(c)
        layout = configs[c][0]
        n, d, spec = layout.num_modes, layout.dim, layout.spec("A")
        stack = _gram(rows.reshape(-1, 2, d, d), n)
        del rows  # before the checks and the norms
        if not _visibly_type_ii(stack, n, spec.mask()).all():
            return None
        norms = _pt_norms(stack, n, spec)
        negs[members] = (norms - 1.0) / 2.0
        for i, mat in zip(members, stack):
            mats[i] = mat
    return mats, negs


def conjecture_scan(
    seed=0,
    samples: int = 10000,
    num_modes=(2, 3),
    threshold: float = 1e-10,
) -> CheckReport:
    """Scan random type-II states for vanishing fermionic negativity.

    Samples states whose commutator with a subsystem parity operator is
    visibly nonzero and records the minimum negativity; any sample below
    ``threshold`` is dumped in full as a counterexample candidate.  Sample
    ``t`` takes the ``t % len(configs)``-th bipartition, in the order of
    ``num_modes`` and then ``m_a``.

    The samples run in chunks whose matrices take at most :data:`_STACK_BYTES`,
    each sample counted at its own dimension: each stage (draw, ``G G^+``
    normalisation, type-II test, the checks of ``require_density_matrix``,
    transpose, spectrum) runs once per chunk on a stack of each config's
    samples.  The draws are the ones ``random_density`` makes per sample, in the
    same order, and each norm is the one ``negativity`` takes, so the report
    equals a per-sample scan byte for byte at any budget.  A chunk that raises,
    or in which any sample would be resampled or fails a check, is replayed
    through ``random_density`` and ``negativity`` (:func:`_replayed`).  A sample
    larger than :data:`_STACK_BYTES` (from eight modes) takes that per-sample
    path at once.
    """
    _check_count("samples", samples)
    num_modes = _checked_modes(num_modes)
    _check_nonnegative("threshold", threshold)
    rng = _rng(seed)
    configs = []
    for n in num_modes:
        for m_a in range(1, n):
            configs.append((ModeLayout.bipartite(m_a, n - m_a), m_a))
    size = [16 * layout.dim ** 2 for layout, _ in configs]  # bytes of one sample's matrix
    min_neg = np.inf
    min_info = None
    counterexamples = []
    start = 0
    while start < samples:
        stop, used = start + 1, size[start % len(configs)]
        while stop < samples and used + size[stop % len(configs)] <= _STACK_BYTES:
            used += size[stop % len(configs)]
            stop += 1
        mats, negs = _replayed(  # a sample larger than the budget runs alone, without a stack
            lambda: _scan_stacked(rng, configs, start, stop) if used <= _STACK_BYTES else None,
            _rewound(rng, lambda: _scan_sequential(rng, configs, start, stop)))
        first = int(np.argmin(negs))
        if negs[first] < min_neg:
            layout, m_a = configs[(start + first) % len(configs)]
            min_neg = negs[first]
            min_info = {"trial": start + first, "n": layout.num_modes, "m_a": m_a,
                        "state": _fingerprint(mats[first])}
        for i in np.flatnonzero(negs < threshold):
            t = start + int(i)
            layout, m_a = configs[t % len(configs)]
            counterexamples.append(
                {
                    "trial": t,
                    "n": layout.num_modes,
                    "m_a": m_a,
                    "negativity": float(negs[i]),
                    "matrix": [[z.real, z.imag] for z in mats[i].ravel()],
                }
            )
        start = stop
    violation = max(0.0, threshold - float(min_neg)) if counterexamples else 0.0
    diagnostics = [{"min_negativity": float(min_neg), "minimum_at": min_info,
                    "counterexamples": counterexamples}]
    return _report("conjecture_type_II", samples, violation, 0.0, diagnostics)


def pi_inequality_scan(seed=0, samples: int = 300, flavor: str = "fermionic") -> CheckReport:
    """Monitor ``N_AB^2 + N_AC^2 <= N_{A(BC)}^2`` on random three-mode states.

    Informational only: violation counts are reported but never gate a pass
    (the fermionic-flavor status of the inequality is an open question).  Each
    negativity is one :func:`fneg.measures._pt_norms` call on the stack of the
    samples or of their reductions, equal to ``negativity`` or
    ``pairwise_negativity`` of each sample bit for bit.
    """
    _check_count("samples", samples)
    rng = _rng(seed)
    layout = ModeLayout.tripartite()
    stack = np.stack([(random_density(layout, rng) if t % 3 == 2 else random_pure(
        layout, "odd" if t % 3 else "even", rng)).matrix for t in range(samples)])
    fermionic = _check_flavor(flavor) == "fermionic"
    norms = [_pt_norms(stack, 3, layout.spec("A"), fermionic)] + [
        _pt_norms(_traced(stack, 3, SubsystemSpec((1, m))), 2, SubsystemSpec((1,)), fermionic)
        for m in (2, 3)]
    slacks = [n_a**2 - n_ab**2 - n_ac**2 for n_a, n_ab, n_ac in zip(
        *(((norm - 1.0) / 2.0).tolist() for norm in norms))]
    diagnostics = [{"violations": sum(slack < -1e-10 for slack in slacks),
                    "worst_slack": min(slacks), "flavor": flavor}]
    return _report("pi_inequality_monitor", samples, 0.0, float("inf"), diagnostics)


# -- closed-form regression values ---------------------------------------------------


def _paper_value_rows() -> list[tuple[str, float, float]]:
    """(name, computed, expected) for every closed-form regression value."""
    rows: list[tuple[str, float, float]] = []
    spec1 = SubsystemSpec((1,))

    grid = np.linspace(0.0, 1.0, 101)
    werner = [canonical_state("werner", p=p) for p in grid]

    def max_dev(flavor: str, closed) -> float:
        norms = _stacked_pt_norms(werner, spec1, flavor)
        return max(abs(float(np.log(norm)) - closed(p)) for p, norm in zip(grid, norms))

    dev_f = max_dev("fermionic", lambda p: np.log((1 + p) / 2 + np.sqrt(5 * p**2 - 2 * p + 1) / 2))
    dev_b = max_dev("bosonic", lambda p: np.log(3 * (1 + p) / 4 + abs(1 - 3 * p) / 4))
    rows.append(("werner_fermionic_logneg_grid101_maxdev", float(dev_f), 0.0))
    rows.append(("werner_bosonic_logneg_grid101_maxdev", float(dev_b), 0.0))

    singlet, dimer, w, ghz, triple = (canonical_state(name) for name in (
        "singlet", "majorana_dimer", "w", "ghz", "majorana_triple"))
    w_ab, ghz_ab, triple_ab = (partial_trace(s, SubsystemSpec((1, 2))) for s in (w, ghz, triple))
    rows += [(name, log_negativity(state, spec1, flavor), float(closed))
             for name, state, flavor, closed in (
                 ("singlet_logneg_fermionic", singlet, "fermionic", np.log(2)),
                 ("singlet_logneg_bosonic", singlet, "bosonic", np.log(2)),
                 ("majorana_dimer_logneg_fermionic", dimer, "fermionic", np.log(np.sqrt(2))),
                 ("majorana_dimer_logneg_bosonic", dimer, "bosonic", 0.0),
                 ("w_logneg_one_vs_rest", w, "fermionic", np.log(1 + 2 * np.sqrt(2) / 3)),
                 ("w_reduced_logneg_fermionic", w_ab, "fermionic", np.log((2 + np.sqrt(5)) / 3)),
                 ("ghz_logneg_one_vs_rest", ghz, "fermionic", np.log(2)),
                 ("ghz_reduced_logneg_fermionic", ghz_ab, "fermionic", np.log(np.sqrt(2))),
                 ("ghz_reduced_logneg_bosonic", ghz_ab, "bosonic", 0.0),
                 ("majorana_triple_logneg_one_vs_rest", triple, "fermionic",
                  np.log(np.sqrt(5 / 3))),
                 ("majorana_triple_reduced_logneg", triple_ab, "fermionic",
                  np.log(2 / np.sqrt(3))))]
    w_report, ghz_report, sep = _tripartite_reports([w, ghz, canonical_state("psi_p", p=4 / 7)])
    rows += [
        ("pi_abc_w_fermionic", w_report["pi_abc"], float((np.sqrt(5) - 1) / 9)),
        ("pi_abc_ghz_fermionic", ghz_report["pi_abc"], float((4 * np.sqrt(2) - 5) / 4)),
        ("pi_abc_ghz_bosonic", pi_abc(ghz, "bosonic"), 0.25),
        ("j_abc_ghz", ghz_report["j_abc"], 0.25),
        ("j_abc_w", w_report["j_abc"], 0.0),
        ("three_tangle_ghz", ghz_report["three_tangle"], 0.25),
        ("three_tangle_w", w_report["three_tangle"], 0.0),
        ("two_mode_pure_negativity_0.6_0.8",
         negativity(canonical_state(
             "two_mode_pure", lambdas=(0.6, 0.8), parity="even"), spec1),
         0.48),
    ]
    rows.append((
        "psi_p_separable_point_max_measure",
        max(sep["j_abc"], sep["three_tangle"], sep["n_abc"], abs(sep["pi_abc"])),
        0.0,
    ))
    return rows
