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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SamplingError
from .fock import (
    FLAG_TOL,
    MAX_MODES,
    FockOperator,
    ModeLayout,
    SubsystemSpec,
    _check_count,
    _check_nonnegative,
    _density_verdicts,
    _embedded,
    _graded_product,
    _hermitian_part,
    _require_even_stack,
    _sign_vector,
    embed_local,
)
from .measures import _pt_norm, _pt_norms, log_negativity, negativity, pairwise_negativity, \
    pi_abc, trace_norm, tripartite_report
from .ptranspose import _sector_projection, _signed_gather, _traced, fermionic_pt, partial_trace
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
_RESAMPLE_BUDGET = 500

#: Bytes of the matrices that one stack of a check holds: a slice of the
#: largest states (``n + 2`` modes) of one ``(n, m_A)`` group of ``verify
#: locc`` (2 trials of n = 4, 8 of n = 3, 32 of n = 2), or a chunk of
#: ``conjecture_scan`` samples, each counted at its own d (128 at d = 8).  A
#: stack's temporaries take a few times these bytes, so this sets the peak
#: memory of both; larger stacks gain no speed.
_STACK_BYTES = 1 << 17


@dataclass
class CheckReport:
    """Outcome of one randomized check; ``passed == (max_violation <= tolerance)``."""

    check_name: str
    trials: int
    max_violation: float
    tolerance: float
    passed: bool
    diagnostics: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "trials": self.trials,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "diagnostics": self.diagnostics,
        }


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


def _replayed(rng: np.random.Generator, stacked, replay):
    """``stacked()``; if it raises or returns ``None``, ``replay()`` from the same generator state.

    A stacked run draws what the per-call run draws, in the same order, so the
    replay draws it again bit for bit, and raises the per-call error first.
    """
    state = rng.bit_generator.state
    try:
        result = stacked()
    except Exception:  # the replay raises it again, after any earlier per-call error
        result = None
    if result is None:
        rng.bit_generator.state = state
        result = replay()
    return result


def _fingerprint(matrix: np.ndarray) -> str:
    return hashlib.sha1(np.round(matrix, 12).tobytes()).hexdigest()[:12]


# -- random physical operators -----------------------------------------------------


def random_even_operator(layout: ModeLayout, rng: np.random.Generator) -> FockOperator:
    """Generic (non-Hermitian) parity-even operator with Gaussian entries."""
    draws = rng.normal(size=(2, layout.dim, layout.dim))
    return FockOperator(layout, _block_gaussian(draws, _parity_mask(layout.num_modes)), copy=False)


def _even_hermitians(normals: np.ndarray, num_modes: int) -> np.ndarray:
    """Hermitian parts of the parity-even Gaussians of a ``(..., 2, d, d)`` stack of normals."""
    return _hermitian_part(_block_gaussian(normals, _parity_mask(num_modes)))


def _unitaries(normals: np.ndarray, num_modes: int) -> np.ndarray:
    """``exp(i H)`` for the Hermitian ``H`` of each member of :func:`_even_hermitians`."""
    evals, vecs = np.linalg.eigh(_even_hermitians(normals, num_modes))
    return (vecs * np.exp(1j * evals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _draw_projector_set(rng: np.random.Generator, num_modes: int, max_groups: int | None) -> list:
    """The draws of one projector set: its Hermitian's normals, group count and column groups."""
    dim = 1 << num_modes
    normals = rng.normal(size=(2, dim, dim))
    n_groups = int(rng.integers(1, (max_groups or dim) + 1))
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


def _identity_trial(rng: np.random.Generator, n: int) -> tuple[float, dict]:
    """The worst deviation and the diagnostics of one trial of :func:`check_identity_suite`.

    The parity checks run in the per-call order: ``embed_local``'s of each
    side's local operators, then ``fermionic_pt``'s of the nine distinct
    transpose inputs; the first member that fails raises through that call.
    Every other per-call check is of one of these matrices or of a transpose
    of one, a signed permutation that keeps the parity leak bit for bit.
    """
    m_a = int(rng.integers(1, n))
    layout = ModeLayout.bipartite(m_a, n - m_a)
    spec_a, spec_b = layout.spec("A"), layout.spec("B")
    r = random_density(layout, rng).matrix
    embedded = []  # X, Y and their full transposes on each side
    for spec in (spec_a, spec_b):
        m = len(spec)
        sub = ModeLayout(m, ("A",) * m)
        local = np.stack([random_even_operator(sub, rng).matrix for _ in "xy"])
        _require_even_stack(sub, local, lambda op: embed_local(op, layout, spec.target_modes))
        local_t = _signed_gather(local, m, SubsystemSpec(tuple(range(1, m + 1))), fermionic=True)
        embedded.append(_embedded(np.concatenate([local, local_t]), layout, spec.target_modes))
    (ea, eya, ea_t, eya_t), (eb, eyb, eb_t, eyb_t) = embedded

    sandwich = ea @ eb @ r @ eya @ eyb
    eye = np.eye(layout.dim, dtype=complex)
    inputs = np.stack([r, r @ eb, eb @ r, r @ ea, ea @ r, r @ ea @ eb, ea @ eb @ r, sandwich, eye])
    _require_even_stack(layout, inputs, lambda op: fermionic_pt(op, spec_a))
    t = _signed_gather(inputs, n, spec_a, fermionic=True)
    t_a = t[0]
    twice = [0, 1, 3, 5, 7]  # rho, rho X_B, rho X_A, rho X_A X_B and the sandwich
    t_b = _signed_gather(np.concatenate([inputs[[0, 7]], t[twice]]), n, spec_b, fermionic=True)
    everything = SubsystemSpec(tuple(range(1, n + 1)))
    full = _signed_gather(inputs[twice], n, everything, fermionic=True)
    p_a = _sign_vector(n, spec_a.mask())
    deviations = {
        "rho_xb_right": np.abs(t[1] - t_a @ eb).max(),
        "rho_xb_left": np.abs(t[2] - eb @ t_a).max(),
        "rho_xa_right": np.abs(t[3] - ea_t @ t_a).max(),
        "rho_xa_left": np.abs(t[4] - t_a @ ea_t).max(),
        "rho_xaxb_right": np.abs(t[5] - ea_t @ t_a @ eb).max(),
        "rho_xaxb_left": np.abs(t[6] - eb @ t_a @ ea_t).max(),
        "sandwich_ta": np.abs(t[7] - eya_t @ eb @ t_a @ ea_t @ eyb).max(),
        "sandwich_tb": np.abs(t_b[1] - ea @ eyb_t @ t_b[0] @ eya @ eb_t).max(),
        "successive_plain": np.abs(t_b[2] - full[0]).max(),
        "successive_xb": np.abs(t_b[3] - full[1]).max(),
        "successive_xa": np.abs(t_b[4] - full[2]).max(),
        "successive_xaxb": np.abs(t_b[5] - full[3]).max(),
        "successive_sandwich": np.abs(t_b[6] - full[4]).max(),
        "double_ta": np.abs(_signed_gather(t_a, n, spec_a, fermionic=True)
                            - p_a[:, None] * r * p_a[None, :]).max(),
        "identity_fixed": np.abs(t[8] - np.eye(layout.dim)).max(),
    }
    worst = max(deviations, key=deviations.get)
    return float(deviations[worst]), {"n": n, "m_a": m_a, "state": _fingerprint(r),
                                      "max_violation": float(deviations[worst]),
                                      "worst_identity": worst}


def _mode_counts(modes) -> tuple[int, ...]:
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

    A trial draws what a per-call trial draws, in the same order, and works on
    stacks: each side's two local operators are checked, transposed and
    embedded together with their transposes, and the nine distinct transpose
    inputs are checked and transposed over A as one stack, six signed gathers
    a trial in all (:func:`_identity_trial`).  Every deviation is bit for bit
    the per-call one, and the first parity-odd local operator or transpose
    input raises ``embed_local``'s or ``fermionic_pt``'s error.
    """
    _check_count("trials", trials)
    _check_nonnegative("tolerance", tolerance)
    modes = _mode_counts(modes)
    rng = _rng(seed)
    base_seed = seed if isinstance(seed, int) else None
    worst = 0.0
    diagnostics = []
    for t in range(trials):
        n = modes[t % len(modes)]
        dev, diag = _identity_trial(rng, n)
        diag["trial"] = t
        diag["seed"] = base_seed
        diagnostics.append(diag)
        worst = max(worst, dev)
    return _report("identity_suite", trials, worst, tolerance, diagnostics)


# -- LOCC monotonicity -------------------------------------------------------------


def _measured_branches(evolved: np.ndarray, big: ModeLayout, r_mode: int):
    """The branches of measuring the occupation of ``r_mode`` on each state of a stack on ``big``.

    The states are validated as ``parity_project`` validates one, and measured
    by its kernel and ``partial_trace``'s.  Returns the branches' owners (the
    index of their state), weights and reduced states, a stack, each state's
    branches in a row, the even one first; and each state's parity leak and
    Hermiticity residual, which the validation read.
    """
    verdicts, *residuals = _density_verdicts(evolved, big.num_modes, FLAG_TOL)
    for member in evolved[~verdicts]:
        FockOperator(big, member).require_density_matrix()
    keep = SubsystemSpec(tuple(m for m in range(1, big.num_modes + 1) if m != r_mode))
    owners, weights, states = [], [], []
    for sector in ("even", "odd"):  # |0><0| and |1><1| of one mode are its parity projectors
        projected, found = _sector_projection(evolved, big.num_modes, 1 << (r_mode - 1), sector)
        kept = np.flatnonzero(found > FLAG_TOL)  # parity_project's empty-branch rule
        owners.append(kept)
        weights.append(found[kept])
        states.append(_traced(projected[kept] / found[kept, None, None], big.num_modes, keep))
    order = np.argsort(np.concatenate(owners), kind="stable")
    return (np.concatenate(owners)[order], np.concatenate(weights)[order],
            np.concatenate(states)[order], np.array(residuals))


def _grouped(items, key) -> dict:
    """``items`` in lists by ``key(item)``, each list and the groups in first-seen order."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


def _restack(slots, fn) -> None:
    """Set ``box[name]`` of each ``(box, name, key)`` slot from one ``fn(stack, key)`` per key."""
    for key, members in _grouped(slots, lambda slot: slot[2]).items():
        stack = np.stack([box[name] for box, name, _ in members])
        for (box, name, _), value in zip(members, fn(stack, key)):
            box[name] = value


class _Jobs(NamedTuple):
    """Norms to take: a stack of states on one layout, with one target, in check order."""

    name: str  # the check that reads them
    owners: np.ndarray  # the trial of each state
    states: np.ndarray
    layout: ModeLayout
    spec: SubsystemSpec
    residuals: np.ndarray | None = None  # each state's parity leak and residual, if validated


def _job_norms(jobs: list[_Jobs], trials: int) -> list[dict]:
    """Each trial's ``|rho^{T_A}|_1`` values, in lists by check, from one stage's ``jobs``.

    The jobs are stacked by mode count, target mask and whether their states
    come validated, and each stack is checked, transposed and solved once by
    :func:`fneg.measures._pt_norms`: every norm equals the one behind
    ``negativity`` bit for bit.  If a stack fails a check, every state takes
    one ``_pt_norm`` call, in check order, which raises the per-call error.
    """
    norms = [None] * len(jobs)
    for (n, _, checked), members in _grouped(range(len(jobs)), lambda i: (
            jobs[i].layout.num_modes, jobs[i].spec.mask(), jobs[i].residuals is not None)).items():
        parts = [jobs[i] for i in members]
        stack = parts[0].states if len(parts) == 1 else np.concatenate([j.states for j in parts])
        residuals = np.concatenate([j.residuals for j in parts], axis=-1) if checked else None
        solved = _pt_norms(stack, n, parts[0].spec, residuals=residuals)
        if solved is None:
            norms = [[_pt_norm(FockOperator(job.layout, state), job.spec, "fermionic", FLAG_TOL)
                      for state in job.states] for job in jobs]
            break
        ends = np.cumsum([len(job.states) for job in parts])[:-1]
        for i, values in zip(members, np.split(solved, ends)):
            norms[i] = values
    found = [{job.name: [] for job in jobs} for _ in range(trials)]
    for job, values in zip(jobs, norms):
        for i, value in zip(job.owners, values):
            found[i][job.name].append(float(value))
    return found


def _draw_locc_trial(rng: np.random.Generator) -> dict:
    """Every generator call of one LOCC trial in the per-call order; none needs a built value."""
    n = int(rng.integers(2, 5))
    m_a = int(rng.integers(1, n))
    draw = {name: rng.normal(size=(2, 1 << m, 1 << m))
            for name, m in (("rho", n), ("u_a", m_a), ("u_b", n - m_a), ("append", 1))}
    coin = rng.integers(0, 2)
    draw["proj"] = [_draw_projector_set(rng, m, 3) for m in (m_a, n - m_a)] if coin else None
    draw.update({name: rng.normal(size=(2, 1 << m, 1 << m))
                 for name, m in (("sigma", 1), ("u_ar", m_a + 1), ("other", 2))})
    return {"n": n, "m_a": m_a, **draw}


def _build_locc_group(n: int, m_a: int, trials: list[dict]) -> list[_Jobs]:
    """Build the drawn trials of one ``(n, m_A)`` group as stacks.

    Sets each trial's branch weights and diagnostics and returns the norm jobs
    of stages (a) to (d), in check order.  The validated evolved states come
    with the residuals that :func:`_measured_branches` read.  The parity
    checks of ``embed_local`` and ``graded_tensor`` run on the stacks, in the
    per-call order (:func:`fock._require_even_stack`).
    """
    layout = ModeLayout.bipartite(m_a, n - m_a)
    spec_a, spec_b = layout.spec("A"), layout.spec("B")
    one = ModeLayout(1, ("A",))

    def stack(name: str) -> np.ndarray:
        return np.stack([t[name] for t in trials])

    def embedded(local: np.ndarray, target: ModeLayout, modes: tuple[int, ...]) -> np.ndarray:
        _require_even_stack(ModeLayout(len(modes), ("A",) * len(modes)), local)
        return _embedded(local, target, modes)

    def graded(rhs_layout: ModeLayout, rhs: np.ndarray) -> tuple[ModeLayout, np.ndarray]:
        _require_even_stack(rhs_layout, rhs)  # rho, the left operand, is checked once below
        return _graded_product(layout, rhs_layout, rho, rhs)

    rho = stack("rho")

    # (a) invariance under local parity-even unitaries
    u = (embedded(stack("u_a"), layout, spec_a.target_modes)
         @ embedded(stack("u_b"), layout, spec_b.target_modes))
    rotated = u @ rho @ u.conj().swapaxes(-1, -2)

    # (b) appending an unentangled ancilla to A
    _require_even_stack(layout, rho)
    big, appended = graded(one, stack("append"))

    # (c) complete local projective measurements, by random projector sets or by parity
    drawn = [t for t in trials if t["proj"]]
    for side, spec in enumerate((spec_a, spec_b)):
        sets = [_projector_set(*t["proj"][side]) for t in drawn]
        if drawn:
            local = np.stack([p for projectors in sets for p in projectors])
            flat = iter(embedded(local, layout, spec.target_modes))
            for t, projectors in zip(drawn, sets):
                t["proj"][side] = [next(flat) for _ in projectors]
    parity = [_parity_projectors(layout, spec.target_modes) for spec in (spec_a, spec_b)]
    pairs = [(i, ea, eb) for i, t in enumerate(trials) for proj_a, proj_b in [t["proj"] or parity]
             for ea in proj_a for eb in proj_b]
    ops = np.stack([ea for _, ea, _ in pairs]) @ np.stack([eb for _, _, eb in pairs])
    projected = ops @ rho[[i for i, _, _ in pairs]] @ ops
    weights = np.real(np.trace(projected, axis1=-2, axis2=-1))
    kept = np.flatnonzero(weights > FLAG_TOL)  # parity_project's empty-branch rule
    outcomes = _Jobs("outcomes", np.array([pairs[j][0] for j in kept], dtype=int),
                     projected[kept] / weights[kept, None, None], layout, spec_a)

    # (d) entangling an ancilla into A, measuring it, with and without averaging
    _, sigma = graded(one, stack("sigma"))
    tilde_spec = big.spec("A")
    u_ar = embedded(stack("u_ar"), big, tilde_spec.target_modes)
    evolved = u_ar @ sigma @ u_ar.conj().swapaxes(-1, -2)
    owners, branch_weights, reduced, checked = _measured_branches(
        evolved, big, tilde_spec.target_modes[-1])
    mixed = np.stack([sum(w * red for w, red in zip(branch_weights[owners == i],
                                                     reduced[owners == i]))
                      for i in range(len(trials))])

    for i, t in enumerate(trials):
        t["weights"] = {"outcomes": weights[kept][outcomes.owners == i].tolist(),
                        "branches": branch_weights[owners == i].tolist()}
        t["diag"] = {"n": n, "m_a": m_a, "state": _fingerprint(rho[i])}
    every = np.arange(len(trials))
    return [_Jobs("rho", every, rho, layout, spec_a),
            _Jobs("rotated", every, rotated, layout, spec_a),
            _Jobs("appended", every, appended, big, tilde_spec),
            outcomes,
            _Jobs("evolved", every, evolved, big, tilde_spec, checked),
            _Jobs("branches", owners, reduced, layout, spec_a),
            _Jobs("mixed", every, mixed, layout, spec_a)]


def _build_locc_stacking(n: int, m_a: int, trials: list[dict]) -> list[_Jobs]:
    """(e) additivity under stacking: the norm jobs of ``rho (x) other`` and ``other``.

    Built after the other stages' norms are taken and their states released,
    since these states are the largest.
    """
    layout, two = ModeLayout.bipartite(m_a, n - m_a), ModeLayout.bipartite(1, 1)
    other = np.stack([t["other"] for t in trials])
    _require_even_stack(two, other)
    wide, stacked = _graded_product(layout, two, np.stack([t["rho"] for t in trials]), other)
    every = np.arange(len(trials))
    return [_Jobs("stacked", every, stacked, wide, wide.spec("A")),
            _Jobs("other", every, other, two, two.spec("A"))]


def _score_locc_trial(diag: dict, weights: dict, norms: dict) -> tuple[float, dict]:
    """The worst violation of a built trial and its diagnostics, from its norms."""
    neg = {key: [(x - 1.0) / 2.0 for x in values] for key, values in norms.items()}
    base_neg = neg["rho"][0]
    base_logneg = float(np.log(2.0 * base_neg + 1.0))
    viol = {
        "local_unitary": abs(neg["rotated"][0] - base_neg),
        "ancilla_append": abs(neg["appended"][0] - base_neg),
    }
    avg = sum(w * x for w, x in zip(weights["outcomes"], neg["outcomes"]))
    viol["projective"] = max(0.0, avg - base_neg)
    viol["unilocal_unitary"] = abs(neg["evolved"][0] - base_neg)
    avg_neg = sum(w * x for w, x in zip(weights["branches"], neg["branches"]))
    avg_logneg = sum(w * float(np.log(x)) for w, x in zip(weights["branches"], norms["branches"]))
    viol["ancilla_trace_selective"] = max(0.0, avg_neg - base_neg)
    viol["ancilla_trace_averaged"] = max(0.0, neg["mixed"][0] - base_neg)
    viol["ancilla_trace_logneg"] = max(0.0, avg_logneg - base_logneg)
    viol["additivity"] = abs(
        float(np.log(norms["stacked"][0]))
        - float(np.log(norms["rho"][0]))
        - float(np.log(norms["other"][0]))
    )

    worst = max(viol, key=viol.get)
    return float(max(viol.values())), {**diag, "base_negativity": float(base_neg),
                                       "max_violation": float(viol[worst]), "worst_check": worst}


def _locc_chunk(rng: np.random.Generator, count: int) -> list[tuple[float, dict]]:
    """``(worst violation, diagnostics)`` of each of ``count`` trials.

    The draw phase makes every generator call of the trials, one trial after
    the other, so a replay from a saved generator state draws them bit for bit.
    The build phase runs stage by stage on stacks: one Gram per mode count, one
    ``eigh`` per local mode count (unitaries, then projector sets), then each
    ``(n, m_A)`` group in slices of :data:`_STACK_BYTES`.  A slice's stages
    (a) to (d) are built (:func:`_build_locc_group`) and their norms solved on
    stacks (:func:`_job_norms`), then stage (e) (:func:`_build_locc_stacking`);
    each stage's states are released once solved.
    """
    trials = [_draw_locc_trial(rng) for _ in range(count)]
    _restack([(t, name, m) for t in trials for name, m in
              (("rho", t["n"]), ("append", 1), ("sigma", 1), ("other", 2))],
             lambda normals, m: _normalised_gram(_block_gaussian(normals, _parity_mask(m))))
    _restack([(t, name, m) for t in trials for name, m in
              (("u_a", t["m_a"]), ("u_b", t["n"] - t["m_a"]), ("u_ar", t["m_a"] + 1))], _unitaries)
    _restack([(drawn, 0, t["m_a"] if side == 0 else t["n"] - t["m_a"])
              for t in trials if t["proj"] for side, drawn in enumerate(t["proj"])],
             lambda normals, m: np.linalg.eigh(_even_hermitians(normals, m))[1])
    scored = {}
    for (n, m_a), group in _grouped(trials, lambda t: (t["n"], t["m_a"])).items():
        step = max(1, _STACK_BYTES >> (2 * n + 8))  # 2**(2n + 8) bytes: one stacked state
        for part in (group[k:k + step] for k in range(0, len(group), step)):
            norms = [{} for _ in part]
            for build in (_build_locc_group, _build_locc_stacking):  # each stage's states die here
                for trial_norms, found in zip(norms, _job_norms(build(n, m_a, part), len(part))):
                    trial_norms.update(found)
            for t, trial_norms in zip(part, norms):
                scored[id(t)] = _score_locc_trial(t["diag"], t["weights"], trial_norms)
                t.clear()  # the trial's draws
    return [scored[id(t)] for t in trials]


#: Trials that :func:`check_locc_monotonicity` draws together.  A slice's states
#: are released once solved, so a chunk holds little more than its draws.
_LOCC_CHUNK = 64


def check_locc_monotonicity(seed=0, trials: int = 200, tolerance: float = 1e-10) -> CheckReport:
    """Local-unitary invariance, ancilla append/trace, projective measurements,
    and additivity, scored by equality deviation or negative inequality slack.

    A chunk of :data:`_LOCC_CHUNK` trials makes all its draws, then builds its
    states stage by stage on stacks and solves their norms on stacks as soon as
    they are built (:func:`_locc_chunk`).  The values equal one ``negativity``
    or ``log_negativity`` call per state bit for bit.  If a build or a solve
    raises, the chunk is replayed one trial at a time (:func:`_replayed`), and
    a trial's stack that fails a check takes one ``_pt_norm`` call per state,
    so the first error is the per-call one.  The ancilla is measured with the
    kernels of :func:`fneg.ptranspose.parity_project`, and every measurement
    drops an outcome of weight at most ``FLAG_TOL``, ``parity_project``'s
    empty-sector rule.
    """
    _check_count("trials", trials)
    _check_nonnegative("tolerance", tolerance)
    rng = _rng(seed)
    base_seed = seed if isinstance(seed, int) else None
    worst = 0.0
    diagnostics = []
    for start in range(0, trials, _LOCC_CHUNK):
        count = min(_LOCC_CHUNK, trials - start)
        scored = _replayed(rng, lambda: _locc_chunk(rng, count),
                           lambda: [result for _ in range(count) for result in _locc_chunk(rng, 1)])
        for t, (dev, diag) in enumerate(scored, start):
            diag["trial"] = t
            diag["seed"] = base_seed
            diagnostics.append(diag)
            worst = max(worst, dev)
    return _report("locc_monotonicity", trials, worst, tolerance, diagnostics)


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
    for _ in range(_RESAMPLE_BUDGET):
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
    layout = ModeLayout(1 + m, ("A",) + ("B",) * m)
    dim = 2 * sub
    idx0 = 2 * np.arange(sub)  # mode-1 occupation 0
    idx1 = idx0 + 1
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.ix_(idx0, idx0)] = w[0] * rho0
    mat[np.ix_(idx1, idx1)] = w[1] * rho1
    mat[np.ix_(idx1, idx0)] = eps * delta
    mat[np.ix_(idx0, idx1)] = eps * delta.conj().T
    return FockOperator(layout, mat, copy=False)


def trace_norm_prediction(
    w: np.ndarray, rho0: np.ndarray, rho1: np.ndarray, delta: np.ndarray, eps: float
) -> float:
    """Second-order prediction ``1 + 2 eps^2 sum |<psi_j|d|phi_k>|^2/(w0 mu_j + w1 nu_k)``."""
    mu, psi = np.linalg.eigh(rho0)
    nu, phi = np.linalg.eigh(rho1)
    amp = psi.conj().T @ delta @ phi
    denom = w[0] * mu[:, None] + w[1] * nu[None, :]
    return 1.0 + 2.0 * eps**2 * float(np.sum(np.abs(amp) ** 2 / denom))


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
    """
    _check_count("trials", trials)
    if not 0.0 <= min_pass_fraction <= 1.0:  # NaN fails too
        raise ValueError(f"min_pass_fraction must be in [0, 1], got {min_pass_fraction!r}")
    epsilons = tuple(float(e) for e in epsilons)
    # 0 < each epsilon < the one before it, so the first is positive too; NaN fails
    if len(epsilons) < 2 or not all(0 < nxt < prev for prev, nxt in zip(epsilons, epsilons[1:])):
        raise ValueError("epsilons must be a decreasing positive sequence")
    if not -np.inf < ratio_bounds[0] <= ratio_bounds[1] < np.inf:  # NaN fails too
        raise ValueError(f"ratio_bounds must be finite with lo <= hi, got {ratio_bounds!r}")
    rng = _rng(seed)
    diagnostics = []
    failures = 0
    for t in range(trials):
        m = 1 + t % 2
        w, rho0, rho1, delta = _perturbation_instance(rng, m, max(epsilons))
        residuals = []
        for eps in epsilons:
            rho = perturbed_state(w, rho0, rho1, delta, eps)
            actual = trace_norm(fermionic_pt(rho, SubsystemSpec((1,))))
            residuals.append(abs(actual - trace_norm_prediction(w, rho0, rho1, delta, eps)))
        ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
        ok = all(ratio_bounds[0] <= r <= ratio_bounds[1] for r in ratios)
        failures += 0 if ok else 1
        diagnostics.append(
            {
                "trial": t,
                "m_rest": m,
                "residuals": [float(x) for x in residuals],
                "ratios": [float(x) for x in ratios],
                "within_bounds": ok,
            }
        )
    fail_fraction = failures / trials
    return _report(
        "perturbation_expansion", trials, fail_fraction, 1.0 - min_pass_fraction, diagnostics
    )


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
    member would be resampled as not type II, or fails a check of
    ``require_density_matrix`` or ``fermionic_pt``.
    """
    cycle = np.arange(start, stop) % len(configs)
    sizes = np.array([2 * layout.dim ** 2 for layout, _ in configs])[cycle]
    offsets = np.cumsum(sizes) - sizes
    draws = rng.normal(size=int(sizes.sum()))
    mats = [None] * (stop - start)
    negs = np.empty(stop - start)
    for c, (layout, _) in enumerate(configs):
        members = np.flatnonzero(cycle == c)
        if not members.size:
            continue
        n, d, spec = layout.num_modes, layout.dim, layout.spec("A")
        g = draws[offsets[members, None] + np.arange(2 * d * d)].reshape(-1, 2, d, d)
        stack = _normalised_gram(_block_gaussian(g, _parity_mask(n)))
        if not _visibly_type_ii(stack, n, spec.mask()).all():
            return None
        norms = _pt_norms(stack, n, spec)
        if norms is None:
            return None
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
    same order, so the report equals a per-sample scan byte for byte.  A chunk
    that raises, or in which any sample would be resampled or fails a check, is
    replayed through ``random_density`` and ``negativity`` (:func:`_replayed`).
    A sample larger than :data:`_STACK_BYTES` (from seven modes) takes that
    per-sample path at once.
    """
    _check_count("samples", samples)
    num_modes = _mode_counts(num_modes)
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
            rng, lambda: _scan_stacked(rng, configs, start, stop) if used <= _STACK_BYTES else None,
            lambda: _scan_sequential(rng, configs, start, stop))
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
    (the fermionic-flavor status of the inequality is an open question).
    """
    _check_count("samples", samples)
    rng = _rng(seed)
    layout = ModeLayout.tripartite()
    violations = 0
    worst_slack = np.inf
    for t in range(samples):
        kind = t % 3
        if kind == 0:
            rho = random_pure(layout, "even", rng)
        elif kind == 1:
            rho = random_pure(layout, "odd", rng)
        else:
            rho = random_density(layout, rng)
        n_a = negativity(rho, layout.spec("A"), flavor)
        n_ab = pairwise_negativity(rho, "A", "B", flavor)
        n_ac = pairwise_negativity(rho, "A", "C", flavor)
        slack = n_a**2 - n_ab**2 - n_ac**2
        worst_slack = min(worst_slack, slack)
        if slack < -1e-10:
            violations += 1
    diagnostics = [
        {"violations": violations, "worst_slack": float(worst_slack), "flavor": flavor}
    ]
    return _report("pi_inequality_monitor", samples, 0.0, float("inf"), diagnostics)


# -- closed-form regression values ---------------------------------------------------


def _paper_value_rows() -> list[tuple[str, float, float]]:
    """(name, computed, expected) for every closed-form regression value."""
    rows: list[tuple[str, float, float]] = []
    spec1 = SubsystemSpec((1,))

    grid = np.linspace(0.0, 1.0, 101)
    dev_f = max(
        abs(
            log_negativity(canonical_state("werner", p=p), spec1, "fermionic")
            - np.log((1 + p) / 2 + np.sqrt(5 * p**2 - 2 * p + 1) / 2)
        )
        for p in grid
    )
    dev_b = max(
        abs(
            log_negativity(canonical_state("werner", p=p), spec1, "bosonic")
            - np.log(3 * (1 + p) / 4 + abs(1 - 3 * p) / 4)
        )
        for p in grid
    )
    rows.append(("werner_fermionic_logneg_grid101_maxdev", float(dev_f), 0.0))
    rows.append(("werner_bosonic_logneg_grid101_maxdev", float(dev_b), 0.0))

    singlet = canonical_state("singlet")
    rows.append(("singlet_logneg_fermionic",
                 log_negativity(singlet, spec1, "fermionic"), float(np.log(2))))
    rows.append(("singlet_logneg_bosonic",
                 log_negativity(singlet, spec1, "bosonic"), float(np.log(2))))

    dimer = canonical_state("majorana_dimer")
    rows.append(("majorana_dimer_logneg_fermionic",
                 log_negativity(dimer, spec1, "fermionic"), float(np.log(np.sqrt(2)))))
    rows.append(("majorana_dimer_logneg_bosonic",
                 log_negativity(dimer, spec1, "bosonic"), 0.0))

    w = canonical_state("w")
    ghz = canonical_state("ghz")
    w_report, ghz_report = tripartite_report(w), tripartite_report(ghz)
    triple = canonical_state("majorana_triple")

    w_ab = partial_trace(w, SubsystemSpec((1, 2)))
    ghz_ab = partial_trace(ghz, SubsystemSpec((1, 2)))
    triple_ab = partial_trace(triple, SubsystemSpec((1, 2)))
    rows += [
        ("w_logneg_one_vs_rest",
         log_negativity(w, spec1), float(np.log(1 + 2 * np.sqrt(2) / 3))),
        ("w_reduced_logneg_fermionic",
         log_negativity(w_ab, spec1), float(np.log((2 + np.sqrt(5)) / 3))),
        ("ghz_logneg_one_vs_rest", log_negativity(ghz, spec1), float(np.log(2))),
        ("ghz_reduced_logneg_fermionic",
         log_negativity(ghz_ab, spec1), float(np.log(np.sqrt(2)))),
        ("ghz_reduced_logneg_bosonic", log_negativity(ghz_ab, spec1, "bosonic"), 0.0),
        ("majorana_triple_logneg_one_vs_rest",
         log_negativity(triple, spec1), float(np.log(np.sqrt(5 / 3)))),
        ("majorana_triple_reduced_logneg",
         log_negativity(triple_ab, spec1), float(np.log(2 / np.sqrt(3)))),
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
    sep = tripartite_report(canonical_state("psi_p", p=4 / 7))
    rows.append((
        "psi_p_separable_point_max_measure",
        max(sep["j_abc"], sep["three_tangle"], sep["n_abc"], abs(sep["pi_abc"])),
        0.0,
    ))
    return rows
