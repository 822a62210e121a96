import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import outcome, record_calls
from fneg.classify import mixed3_classify, pure3_class
from fneg.cli import main as cli_main
from fneg.errors import LayoutError, ParityError, StateValidationError
from fneg.fock import (
    _BLOCK_MIN_MODES,
    FLAG_TOL,
    FockOperator,
    ModeLayout,
    SubsystemSpec,
    _hermitian_residual,
    _parity_block_index,
    _sign_vector,
)
from fneg.measures import (
    SINGULAR_FLOOR,
    MeasureReport,
    _is_pure,
    _pt_norm,
    _stacked_pt_norms,
    _tripartite_norms,
    _tripartite_reports,
    amplitude_tensor,
    bipartite_report,
    cayley_hdet,
    entropy,
    j_abc,
    j_abc_details,
    log_negativity,
    mutual_information,
    n_abc,
    negativity,
    one_vs_rest_negativities,
    pairwise_negativity,
    pi_abc,
    pt_moment,
    singular_values,
    three_tangle,
    trace_norm,
    tripartite_report,
)
from fneg.ptranspose import (
    _signed_gather,
    bosonic_pt,
    fermionic_pt,
    fermionic_pt_majorana,
    full_transpose,
    parity_project,
    partial_trace,
)
from fneg.states import (
    PureCoeffs,
    canonical_state,
    pure_vector_from_coeffs,
    random_density,
    random_pure,
    random_separable,
)

S1 = SubsystemSpec((1,))

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1j], [1j, 0.0]])
_Z = np.diag([1.0, -1.0]).astype(complex)
_I = np.eye(2, dtype=complex)


@pytest.mark.parametrize("tol", [np.nan, -1e-9])
@pytest.mark.parametrize("call", [
    lambda rho, tol: negativity(rho, S1, tol=tol),
    lambda rho, tol: entropy(rho, tol=tol),
    lambda rho, tol: pt_moment(rho, S1, 2, tol=tol),
    lambda rho, tol: parity_project(rho, S1, "even", tol=tol),
    lambda rho, tol: mixed3_classify(rho, tol=tol),
    lambda rho, tol: tripartite_report(rho, tol=tol),
], ids=["negativity", "entropy", "pt_moment", "parity_project", "mixed3_classify",
        "tripartite_report"])
def test_bad_tol_is_rejected(call, tol):
    # a valid state raised StateValidationError("operator is not a unit-trace Hermitian matrix")
    with pytest.raises(ValueError, match="tol must be a finite number >= 0") as raised:
        call(canonical_state("ghz"), tol)
    assert raised.type is ValueError


def pauli_closed_form_trace_norm(rho: np.ndarray) -> float:
    """Closed-form trace norm of the transposed two-mode state.

    Independent oracle: decompose in the two-qubit Pauli basis, rotate the
    off-diagonal coefficients by the transpose phases, and evaluate the four
    singular values analytically.
    """

    def pauli(m1, m2):
        return np.kron(m2, m1)  # mode 1 is the low bit

    a3 = np.real(np.trace(rho @ pauli(_Z, _Z))) / 4
    a1 = np.real(np.trace(rho @ pauli(_Z, _I))) / 4
    a2 = np.real(np.trace(rho @ pauli(_I, _Z))) / 4
    b = {
        (an, bn): np.real(np.trace(rho @ pauli(am, bm))) / 4
        for an, am in (("x", _X), ("y", _Y))
        for bn, bm in (("x", _X), ("y", _Y))
    }
    c = {
        ("x", "x"): b[("x", "x")],
        ("x", "y"): b[("x", "y")],
        ("y", "x"): -b[("y", "x")],
        ("y", "y"): -b[("y", "y")],
    }
    first = np.sqrt(
        (c[("x", "x")] + c[("y", "y")]) ** 2
        + (c[("x", "y")] - c[("y", "x")]) ** 2
        + (0.25 - a3) ** 2
    )
    second = np.sqrt(
        (c[("x", "x")] - c[("y", "y")]) ** 2
        + (c[("x", "y")] + c[("y", "x")]) ** 2
        + (0.25 + a3) ** 2
    )
    return float(2 * first + 2 * second)


class TestTraceNorm:
    def test_density_matrix_norm_is_one(self, rng):
        rho = random_density(ModeLayout.tripartite(), rng)
        assert abs(trace_norm(rho) - 1.0) <= 1e-12

    def test_dimer_transposed_norm(self):
        rho = canonical_state("majorana_dimer")
        assert abs(trace_norm(fermionic_pt(rho, S1)) - np.sqrt(2)) <= 1e-12

    def test_closed_form_pauli_oracle(self, rng):
        lay = ModeLayout.bipartite(1, 1)
        for _ in range(200):
            rho = random_density(lay, rng)
            actual = trace_norm(fermionic_pt(rho, S1))
            assert abs(actual - pauli_closed_form_trace_norm(rho.matrix)) <= 1e-12

    def test_exact_zero_singular_values(self):
        # rank-deficient input must not leak sqrt(machine-eps) noise
        svals = singular_values(np.zeros((4, 4), dtype=complex))
        assert svals.max() == 0.0


def _parity_block_operators(n: int, seed: int):
    """A random parity-even state and its transposes over leading and interleaved targets."""
    rho = random_density(ModeLayout(n, ("A",) * n), seed)
    yield rho
    if n == 1:  # no proper target: the full transposes
        yield full_transpose(rho)
        yield bosonic_pt(rho, S1)
        return
    for target in (tuple(range(1, n // 2 + 1)), tuple(range(1, n + 1, 2))):
        yield fermionic_pt(rho, SubsystemSpec(target))
        yield bosonic_pt(rho, SubsystemSpec(target))


def _dense_entropy(matrix: np.ndarray, order) -> float:
    evals = np.clip(np.linalg.eigvalsh(matrix), 0.0, None)
    if order == "vN":
        nz = evals[evals > SINGULAR_FLOOR]
        return float(-(nz * np.log(nz)).sum())
    if order < 1:
        evals = evals[evals > SINGULAR_FLOOR]
    return float(np.log((evals**order).sum()) / (1.0 - order))


class TestParityBlockSpectra:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_block_path_matches_dense(self, n):
        for op in _parity_block_operators(n, seed=100 + n):
            # every N takes the block path
            assert op._exact_blocks()
            dense = np.linalg.svd(op.matrix, compute_uv=False)
            assert np.abs(singular_values(op) - dense).max() <= 1e-12
            assert abs(trace_norm(op) - dense.sum()) <= 1e-12
            herm = (op.matrix + op.matrix.conj().T) / 2
            assert abs(op.min_eigenvalue() - np.linalg.eigvalsh(herm)[0]) <= 1e-12
            if op.is_density_matrix():
                for order in ("vN", 0.5, 2):
                    assert abs(entropy(op, order) - _dense_entropy(op.matrix, order)) <= 1e-12

    @pytest.mark.parametrize("flavor", ["fermionic", "bosonic"])
    def test_tiny_off_block_entry_takes_dense_path(self, monkeypatch, flavor):
        rho = random_density(ModeLayout(6, ("A",) * 6), 7)
        transpose = fermionic_pt if flavor == "fermionic" else bosonic_pt
        t = transpose(rho, SubsystemSpec((1, 3, 5))).matrix.copy()
        t[0, 1] = 1e-300  # |000000> is even, |100000> odd
        m = rho.matrix.copy()
        m[0, 1] = m[1, 0] = 1e-300
        want = (np.linalg.svd(t, compute_uv=False), np.linalg.eigvalsh(m)[0],
                _dense_entropy(m, "vN"))
        log = record_calls(monkeypatch, "svd", "eigvalsh", "cholesky")
        assert np.abs(singular_values(FockOperator(rho.layout, t)) - want[0]).max() <= 1e-12
        state = FockOperator(rho.layout, m)
        assert abs(state.min_eigenvalue() - want[1]) <= 1e-12
        assert abs(entropy(state) - want[2]) <= 1e-12
        # one svd (on a stack of one, as every operator's spectrum), eigvalsh for
        # min_eigenvalue, entropy's PSD check as one Cholesky and its spectrum by
        # eigvalsh, every one on the whole 64 x 64 matrix
        assert log == [("svd", (1, 64, 64)), ("eigvalsh", (64, 64)), ("cholesky", (64, 64)),
                       ("eigvalsh", (64, 64))]

    @pytest.mark.parametrize("pos", [(0, 0), (0, 1), (0, 3)])
    def test_nan_entry_keeps_dense_behaviour(self, pos):
        # a diagonal entry, an entry between the parities, an entry inside the even block
        mat = np.eye(32, dtype=complex) / 32
        mat[pos] = np.nan
        op = FockOperator(ModeLayout.bipartite(1, 4), mat)
        assert not op._exact_blocks()
        with pytest.raises(np.linalg.LinAlgError):
            trace_norm(op)
        assert not op.is_density_matrix()
        with pytest.raises(StateValidationError, match="unit-trace Hermitian"):
            negativity(op, S1)


def _anti_hermitian_part(n: int, rng) -> np.ndarray:
    """``1e-11 i K`` with K real, symmetric, parity-even and zero on the diagonal.

    Added to a state it stays Hermitian within FLAG_TOL, but not exactly.
    """
    parity = _sign_vector(n, (1 << n) - 1)
    k = rng.normal(size=(1 << n, 1 << n))
    k = np.where(np.equal.outer(parity, parity), k + k.T, 0.0)
    np.fill_diagonal(k, 0.0)
    k /= np.abs(k).max()
    return 1e-11j * k


class TestHermitianTwin:
    """At every N, exactly Hermitian parity blocks take |eigvalsh| instead of the SVD.

    ``negativity`` and ``singular_values`` solve blocks through the stacked
    kernel on a stack of one, so their solvers see the shapes of a one-member
    stack: from _BLOCK_MIN_MODES through ``_pt_norms``, below it through
    ``trace_norm`` of the twin.
    """

    @pytest.mark.parametrize("n", range(2, 11))
    def test_eigen_path_matches_dense_svd(self, monkeypatch, n):
        targets = {"leading": tuple(range(1, n // 2 + 1)),
                   "trailing": tuple(range(n // 2 + 1, n + 1)),
                   "interleaved": tuple(range(1, n + 1, 2))}
        states = {"mixed": random_density(ModeLayout(n, ("A",) * n), 60 + n),
                  "pure": random_pure(ModeLayout(n, ("A",) * n), "even", 60 + n)}
        grid = [(state, target, flavor) for state in states for target in targets
                for flavor in ("fermionic", "bosonic")]
        if n == 9:  # a 1024 x 1024 dense SVD takes about 0.5 s: N = 9 and 10 split the grid
            grid = [("pure", "leading", "fermionic"), ("pure", "interleaved", "bosonic")]
        elif n == 10:
            grid = [("mixed", "interleaved", "fermionic"), ("mixed", "trailing", "bosonic")]
        cases = [(states[state], SubsystemSpec(targets[target]), flavor)
                 for state, target, flavor in grid]
        want = []
        for rho, spec, flavor in cases:
            pt = (fermionic_pt if flavor == "fermionic" else bosonic_pt)(rho, spec)
            want.append(np.linalg.svd(pt.matrix, compute_uv=False))
        log = record_calls(monkeypatch, "svd", "eigvalsh")
        half = (2, 1 << (n - 1), 1 << (n - 1))
        for (rho, spec, flavor), dense in zip(cases, want):
            assert abs(negativity(rho, spec, flavor) - (dense.sum() - 1) / 2) <= 1e-12
            assert log == [("eigvalsh", (1, *half))]
            log.clear()
            if flavor == "bosonic":
                assert np.abs(singular_values(bosonic_pt(rho, spec)) - dense).max() <= 1e-12
                assert log == [("eigvalsh", (1, *half))]
                log.clear()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_pure_takes_the_eigen_path(self, monkeypatch, n):
        # np.outer alone rounds mirror entries apart, which would force the block SVD
        rho = random_pure(ModeLayout(n, ("A",) * n), "odd", 90 + n)
        assert _hermitian_residual(rho.matrix) == 0.0
        spec = SubsystemSpec(tuple(range(1, n // 2 + 1)))
        dense = np.linalg.svd(fermionic_pt(rho, spec).matrix, compute_uv=False)
        log = record_calls(monkeypatch, "svd", "eigvalsh")
        assert abs(negativity(rho, spec) - (dense.sum() - 1) / 2) <= 1e-12
        assert log == [("eigvalsh", (1, 2, 1 << (n - 1), 1 << (n - 1)))]

    @pytest.mark.parametrize("flavor", ["fermionic", "bosonic"])
    def test_anti_hermitian_part_takes_the_svd(self, monkeypatch, rng, flavor):
        rho = random_density(ModeLayout(6, ("A",) * 6), 77)
        state = FockOperator(rho.layout, rho.matrix + _anti_hermitian_part(6, rng))
        assert state.is_density_matrix() and not state.is_hermitian(0.0)
        spec = SubsystemSpec((1, 3, 5))
        pt = (fermionic_pt if flavor == "fermionic" else bosonic_pt)(state, spec)
        dense = np.linalg.svd(pt.matrix, compute_uv=False)
        log = record_calls(monkeypatch, "svd", "eigvalsh")
        assert abs(negativity(state, spec, flavor) - (dense.sum() - 1) / 2) <= 1e-12
        assert log == [("svd", (1, 2, 32, 32))]
        # eigvalsh reads one triangle: taken on the twin it would miss the SVD answer
        twin = pt.matrix * (_sign_vector(6, spec.mask()) if flavor == "fermionic" else 1.0)
        lower = np.tril(twin) + np.tril(twin, -1).conj().T
        assert abs(np.abs(np.linalg.eigvalsh(lower)).sum() - dense.sum()) > 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, _BLOCK_MIN_MODES])
    @pytest.mark.parametrize("pure", [False, True])
    def test_majorana_oracle_at_small_n(self, monkeypatch, pure, n):
        # every proper target at N = 2..5, below and at the first memoised size: the eigen
        # path against the dense SVD of the Majorana-expansion transpose, which shares no
        # code with _signed_gather
        layout = ModeLayout(n, ("A",) * n)
        rho = random_pure(layout, "even", 5) if pure else random_density(layout, 5)
        specs = [SubsystemSpec(t) for m in range(1, n)
                 for t in itertools.combinations(range(1, n + 1), m)]
        want = [trace_norm(fermionic_pt_majorana(rho, spec).matrix) for spec in specs]
        log = record_calls(monkeypatch, "svd", "eigvalsh")
        for spec, norm in zip(specs, want):
            assert abs(negativity(rho, spec) - (norm - 1) / 2) <= 1e-12
        assert log == [("eigvalsh", (1, 2, 1 << (n - 1), 1 << (n - 1)))] * len(specs)


def _scanned_blocks(matrix: np.ndarray, n: int):
    """The exact-block verdict read off a matrix itself: non-zero counts and a finiteness pass."""
    rows, cols = _parity_block_index(n)
    blocks = matrix[rows, cols]
    if np.count_nonzero(blocks) != np.count_nonzero(matrix) or not np.isfinite(blocks).all():
        return None
    return blocks


def _scanned_twin(matrix: np.ndarray, n: int, spec: SubsystemSpec, flavor: str) -> np.ndarray:
    """The transpose a negativity solves: the fermionic Hermitian twin, or the bosonic transpose."""
    with np.errstate(invalid="ignore"):  # inf times an exact zero part of a phase or sign
        t = _signed_gather(matrix, n, spec, flavor == "fermionic")
        if flavor == "fermionic":
            t *= _sign_vector(n, spec.mask())
    return t


def _scanned_norm(t: np.ndarray, n: int):
    """(solver, |t|_1) with every verdict read off ``t`` itself."""
    blocks = _scanned_blocks(t, n)
    if blocks is None:
        return ("svd", t.shape), np.linalg.svd(t, compute_uv=False).sum()
    if np.abs(blocks - blocks.conj().swapaxes(1, 2)).max() == 0.0:
        solver, values = "eigvalsh", np.abs(np.linalg.eigvalsh(blocks))
    else:
        solver, values = "svd", np.linalg.svd(blocks, compute_uv=False)
    return (solver, blocks.shape), np.sort(values, axis=None)[::-1].sum()


class TestResidualShortcut:
    """The norm path reads rho's once-read residuals instead of scanning the transpose.

    Both transposes are signed permutations that keep p(row) + p(col), so the
    verdicts taken on rho equal those taken on the transpose, and so do the
    solver and every bit of the norm.  Below _BLOCK_MIN_MODES each call's
    ``trace_norm`` scans the twin itself, and reaches the same verdicts.
    """

    STATES = ("exact", "tiny_off_block", "nan_in_block", "inf_in_block", "nan_off_block",
              "anti_hermitian")

    @staticmethod
    def _state(kind: str, n: int) -> FockOperator:
        rho = random_density(ModeLayout(n, ("A",) * n), 300 + n)
        m = rho.matrix.copy()
        if kind == "tiny_off_block":
            m[0, 1] = m[1, 0] = 1e-300  # |0..0> is even, |10..0> odd
        elif kind in ("nan_in_block", "inf_in_block"):
            m[0, 3] = np.nan if kind == "nan_in_block" else np.inf  # |0..0> and |110..0>
        elif kind == "nan_off_block":
            m[0, 1] = np.nan
        elif kind == "anti_hermitian":
            m += _anti_hermitian_part(n, np.random.default_rng(n))
        return FockOperator(rho.layout, m, copy=False)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", STATES)
    def test_verdicts_match_a_scan_of_the_transpose(self, monkeypatch, n, kind):
        rho = self._state(kind, n)
        targets = (tuple(range(1, n // 2 + 1)), tuple(range(1, n + 1, 2)), (n,))
        valid = kind in ("exact", "tiny_off_block", "anti_hermitian")
        assert rho.is_density_matrix() is valid
        d, half = 1 << n, (2, 1 << (n - 1), 1 << (n - 1))
        expected = {"exact": ("eigvalsh", half), "tiny_off_block": ("svd", (d, d)),
                    "anti_hermitian": ("svd", half)}
        for target, flavor in itertools.product(targets, ("fermionic", "bosonic")):
            spec = SubsystemSpec(target)
            t = _scanned_twin(rho.matrix, n, spec, flavor)
            blocks = _scanned_blocks(t, n)
            assert rho._exact_blocks() is (blocks is not None)
            if blocks is not None:
                exact = bool(np.abs(blocks - blocks.conj().swapaxes(1, 2)).max() == 0.0)
                assert (rho._hermitian_residual() == 0.0) is exact
            if valid:
                solver, norm = _scanned_norm(t, n)
                assert solver == expected[kind]
                log = record_calls(monkeypatch, "svd", "eigvalsh")
                assert negativity(rho, spec, flavor) == (norm - 1.0) / 2.0
                assert log == [(solver[0], (1, *solver[1]))]  # a stack of one state
                monkeypatch.undo()


class TestNormMemo:
    """One transpose and one spectral solve per (state, flavor, target set)."""

    CALLS = ("svd", "eigvalsh", "fneg.ptranspose._signed_gather")

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("flavor", ["fermionic", "bosonic"])
    def test_one_transpose_and_one_solve_per_cut(self, monkeypatch, n, flavor):
        rho = random_density(ModeLayout(n, ("A",) * n), 30 + n)
        rho.require_density_matrix()  # the validation's own solves stay out of the log
        spec = SubsystemSpec((1, 3))
        log = record_calls(monkeypatch, *self.CALLS)
        neg = negativity(rho, spec, flavor)
        logneg = log_negativity(rho, spec, flavor)
        report = bipartite_report(rho, spec, flavor)
        assert report["negativity"] == neg and report["log_negativity"] == logneg
        d = 1 << n
        half = (1, 2, d // 2, d // 2)  # the twin's blocks, as a stack of one state
        if n >= _BLOCK_MIN_MODES:  # the stacked kernel on a stack of one state
            assert log == [("_signed_gather", (1, d, d)), ("eigvalsh", half)]
        else:  # no memo below five modes: each call transposes and solves its blocks
            assert log == [("_signed_gather", (d, d)), ("eigvalsh", half)] * 3
            assert rho._norms == {}

    def test_target_order_shares_an_entry_complement_and_flavor_do_not(self, monkeypatch):
        rho = random_density(ModeLayout(6, ("A",) * 6), 5)
        rho.require_density_matrix()
        log = record_calls(monkeypatch, *self.CALLS)
        first = negativity(rho, (1, 3))
        assert negativity(rho, SubsystemSpec((3, 1))) == first
        assert len(log) == 2
        complement = negativity(rho, (2, 4, 5, 6))
        assert len(log) == 4  # computed, not copied
        assert abs(complement - first) <= 1e-12
        negativity(rho, (1, 3), "bosonic")
        assert len(log) == 6
        assert sorted(rho._norms) == [("bosonic", 0b101), ("fermionic", 0b101),
                                      ("fermionic", 0b111010)]
        # floats only: no matrix is kept beside the state
        assert all(type(v) is float for v in rho._norms.values())
        assert all(type(v) in (bool, float) for v in rho._flags.values())

    @pytest.mark.parametrize("flavor", ["fermionic", "bosonic"])
    def test_every_check_runs_on_a_hit(self, flavor):
        n = 6
        m = random_density(ModeLayout(n, ("A",) * n), 8).matrix.copy()
        m[0, 1] = m[1, 0] = 1e-9  # parity-even within 1e-6, not within FLAG_TOL
        loose = FockOperator(ModeLayout(n, ("A",) * n), m)
        spec = SubsystemSpec((1, 2))
        negativity(loose, spec, flavor, tol=1e-6)
        assert (flavor, spec.mask()) in loose._norms
        if flavor == "fermionic":
            with pytest.raises(ParityError):
                negativity(loose, spec, flavor)
            with pytest.raises(LayoutError, match="proper subsystem"):
                negativity(loose, tuple(range(1, n + 1)), flavor, tol=1e-6)
        with pytest.raises(ValueError, match="flavor"):
            negativity(loose, spec, "majorana", tol=1e-6)
        with pytest.raises(LayoutError, match="outside layout"):
            negativity(loose, (1, n + 1), flavor, tol=1e-6)
        state = FockOperator(loose.layout, m + _anti_hermitian_part(n, np.random.default_rng(2)))
        log_negativity(state, spec, flavor, tol=1e-6)
        with pytest.raises(StateValidationError, match="unit-trace Hermitian"):
            log_negativity(state, spec, flavor, tol=1e-12)


class TestNegativity:
    @settings(max_examples=60, deadline=None)
    @given(
        re0=st.floats(-1, 1), im0=st.floats(-1, 1),
        re1=st.floats(-1, 1), im1=st.floats(-1, 1),
        parity=st.sampled_from(["even", "odd"]),
    )
    def test_two_mode_pure_formula(self, re0, im0, re1, im1, parity):
        l0, l1 = complex(re0, im0), complex(re1, im1)
        norm = np.sqrt(abs(l0) ** 2 + abs(l1) ** 2)
        if norm < 1e-3:
            return
        l0, l1 = l0 / norm, l1 / norm
        rho = canonical_state("two_mode_pure", lambdas=(l0, l1), parity=parity)
        assert abs(negativity(rho, S1) - abs(l0 * l1)) <= 1e-10

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.75, 1.0])
    def test_werner_formulas(self, p):
        rho = canonical_state("werner", p=p)
        ferm = np.log((1 + p) / 2 + np.sqrt(5 * p**2 - 2 * p + 1) / 2)
        bos = np.log(3 * (1 + p) / 4 + abs(1 - 3 * p) / 4)
        assert abs(log_negativity(rho, S1, "fermionic") - ferm) <= 1e-12
        assert abs(log_negativity(rho, S1, "bosonic") - bos) <= 1e-12

    def test_pure_state_half_renyi_identity(self, rng):
        for n, m_a in [(2, 1), (3, 1), (3, 2), (4, 2)]:
            lay = ModeLayout.bipartite(m_a, n - m_a)
            rho = random_pure(lay, "even" if n % 2 else "odd", rng)
            reduced = partial_trace(rho, lay.spec("A"))
            assert abs(log_negativity(rho, lay.spec("A")) - entropy(reduced, 0.5)) <= 1e-10

    def test_report_invariant(self, rng):
        rho = random_density(ModeLayout.bipartite(1, 1), rng)
        report = bipartite_report(rho, S1)
        assert abs(
            report["log_negativity"] - np.log(2 * report["negativity"] + 1)
        ) <= 1e-12

    def test_report_rejects_inconsistent_entries(self):
        with pytest.raises(StateValidationError):
            MeasureReport(
                {"negativity": 0.5, "log_negativity": 0.0},
                tolerance=1e-10,
                transpose_flavor="fermionic",
            )

    def test_separable_states_have_zero_negativity(self, rng):
        lay = ModeLayout.bipartite(2, 1)
        for _ in range(20):
            rho = random_separable(lay, lay.spec("A"), num_terms=3, seed=rng)
            assert abs(negativity(rho, lay.spec("A"))) <= 1e-10

    def test_flavor_validation(self):
        rho = canonical_state("majorana_dimer")
        with pytest.raises(ValueError):
            negativity(rho, S1, flavor="spinful")


class TestMoments:
    def test_first_moment_vanishes(self, rng):
        rho = random_density(ModeLayout.bipartite(2, 1), rng)
        assert abs(pt_moment(rho, ModeLayout.bipartite(2, 1).spec("A"), 1)) <= 1e-12

    def test_second_moment_is_purity(self, rng):
        lay = ModeLayout.bipartite(2, 2)
        for _ in range(10):
            rho = random_density(lay, rng)
            expected = np.log(np.real(np.trace(rho.matrix @ rho.matrix)))
            assert abs(pt_moment(rho, lay.spec("A"), 2) - expected) <= 1e-12

    def test_dimer_fourth_moment_vs_singular_values(self):
        rho = canonical_state("majorana_dimer")
        svals = singular_values(fermionic_pt(rho, S1))
        expected = np.log((svals**4).sum())
        assert abs(pt_moment(rho, S1, 4) - expected) <= 1e-12

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            pt_moment(canonical_state("majorana_dimer"), S1, 0)

    @pytest.mark.parametrize("order", [3.0, True, float("nan")])
    def test_non_integer_order_rejected(self, order):
        # 3.0 and NaN raised range's TypeError; True was taken as order 1
        with pytest.raises(TypeError, match="n must be an integer"):
            pt_moment(canonical_state("majorana_dimer"), S1, order)


class TestEntropy:
    def test_pure_state_all_orders(self, rng):
        rho = random_pure(ModeLayout.bipartite(1, 1), "even", rng)
        for order in ("vN", 0.5, 2, 3):
            assert abs(entropy(rho, order)) <= 1e-10

    def test_maximally_mixed_mode(self):
        rho = FockOperator(ModeLayout(1, ("A",)), np.diag([0.5, 0.5]).astype(complex))
        assert abs(entropy(rho) - np.log(2)) <= 1e-12
        assert abs(entropy(rho, 2) - np.log(2)) <= 1e-12

    def test_w_reduced_half_renyi(self):
        w = canonical_state("w")
        reduced = partial_trace(w, S1)
        assert abs(entropy(reduced, 0.5) - np.log(1 + 2 * np.sqrt(2) / 3)) <= 1e-12

    def test_invalid_orders(self):
        rho = canonical_state("majorana_dimer")
        with pytest.raises(ValueError):
            entropy(rho, 1)
        with pytest.raises(ValueError):
            entropy(rho, -2)

    @pytest.mark.parametrize("order", [np.nan, np.inf, -np.inf])
    def test_non_finite_order_is_rejected(self, order):
        # NaN returned nan; inf returned nan with two RuntimeWarnings
        with pytest.raises(ValueError, match="Renyi order must be finite"):
            entropy(canonical_state("majorana_dimer"), order)


class TestMutualInformation:
    def test_product_state(self, rng):
        from fneg.fock import graded_tensor

        lhs = random_density(ModeLayout(1, ("A",)), rng)
        rhs = random_density(ModeLayout(1, ("B",)), rng)
        prod = graded_tensor(lhs, rhs)
        assert abs(mutual_information(prod, S1)) <= 1e-10

    def test_singlet(self):
        rho = canonical_state("singlet")
        assert abs(mutual_information(rho, S1) - 2 * np.log(2)) <= 1e-12

    def test_dimer(self):
        rho = canonical_state("majorana_dimer")
        assert abs(mutual_information(rho, S1) - np.log(2)) <= 1e-12
        assert abs(mutual_information(rho, S1, order=2) - np.log(2)) <= 1e-12


class TestJabc:
    def test_ghz(self):
        details = j_abc_details(canonical_state("ghz"))
        assert abs(details.even - 0.5) <= 1e-12
        assert abs(details.odd - 0.5) <= 1e-12
        assert abs(details.product - 0.25) <= 1e-12
        assert not details.degenerate_sector

    def test_w_vanishes(self):
        assert abs(j_abc(canonical_state("w"))) <= 1e-12

    def test_diagonal_separable(self, rng):
        lay = ModeLayout.tripartite()
        rho = random_separable(
            lay, [SubsystemSpec((1,)), SubsystemSpec((2,)), SubsystemSpec((3,))], 3, rng
        )
        assert abs(j_abc(rho)) <= 1e-10

    def test_pair_choice_symmetry(self, rng):
        # The vanishing pattern is partition independent (shared numerator
        # |l0 l1 l2 l3|); the value itself is partition independent only for
        # symmetric states such as GHZ and the GHZ/W interpolation family.
        for name, kwargs in (("ghz", {}), ("psi_p", {"p": 0.3})):
            rho = canonical_state(name, **kwargs)
            values = [
                j_abc(rho, pair=("A", "B"), third="C"),
                j_abc(rho, pair=("B", "C"), third="A"),
                j_abc(rho, pair=("A", "C"), third="B"),
            ]
            assert max(values) - min(values) <= 1e-10
        for sector in ("even", "odd"):
            rho = random_pure(ModeLayout.tripartite(), sector, rng)
            positive = [
                j_abc(rho, pair=("A", "B"), third="C") > 1e-9,
                j_abc(rho, pair=("B", "C"), third="A") > 1e-9,
                j_abc(rho, pair=("A", "C"), third="B") > 1e-9,
            ]
            assert len(set(positive)) == 1

    def test_projected_closed_forms(self, rng):
        # even-sector states: N_{AB,e} pairs (l0,l1); odd-sector states swap
        for sector in ("even", "odd"):
            lams = rng.normal(size=4) + 1j * rng.normal(size=4)
            lams /= np.linalg.norm(lams)
            rho = canonical_state("three_mode_pure", lambdas=lams, parity=sector)
            details = j_abc_details(rho)
            pair01 = abs(lams[0] * lams[1]) / (abs(lams[0]) ** 2 + abs(lams[1]) ** 2)
            pair23 = abs(lams[2] * lams[3]) / (abs(lams[2]) ** 2 + abs(lams[3]) ** 2)
            if sector == "even":
                assert abs(details.even - pair01) <= 1e-10
                assert abs(details.odd - pair23) <= 1e-10
            else:
                assert abs(details.even - pair23) <= 1e-10
                assert abs(details.odd - pair01) <= 1e-10

    def test_degenerate_sector_flag(self):
        rho = canonical_state("three_mode_pure", lambdas=(1.0, 0, 0, 0), parity="even")
        details = j_abc_details(rho)
        assert details.degenerate_sector
        assert details.product == 0.0

    @pytest.mark.parametrize("call, party", [
        (lambda rho: j_abc(rho, pair=("A", "B"), third="A"), "A"),  # returned 0.0
        (lambda rho: j_abc(rho, pair=("A", "B", "C")), "C"),  # returned 0.0
        (lambda rho: j_abc(rho, third="D"), "D"),  # KeyError
        (lambda rho: j_abc(rho, pair=("A", "A")), "A"),  # LayoutError on the spec
        (lambda rho: j_abc_details(rho, pair=("B", "C"), third="B"), "B"),
        (lambda rho: pairwise_negativity(rho, "B", "B"), "B"),
        (lambda rho: pairwise_negativity(rho, "A", "D"), "D"),
    ], ids=["third_in_pair", "three_party_pair", "unknown_third", "repeated_pair",
            "details", "pairwise_repeated", "pairwise_unknown"])
    def test_bad_parties_are_rejected(self, call, party):
        with pytest.raises(ValueError, match=f"A, B, C; got {party!r} in") as raised:
            call(canonical_state("ghz"))
        assert raised.type is ValueError

    def test_one_party_pair_is_rejected(self):
        with pytest.raises(ValueError, match="pair must name two parties"):
            j_abc(canonical_state("ghz"), pair=("A",))


class TestTangle:
    def test_ghz_and_w(self):
        assert abs(three_tangle(canonical_state("ghz")) - 0.25) <= 1e-12
        assert abs(three_tangle(canonical_state("w"))) <= 1e-12

    def test_single_amplitude_tensor(self):
        a = np.zeros((2, 2, 2), dtype=complex)
        a[0, 0, 0] = 1.0
        assert cayley_hdet(a) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(st.floats(-1, 1), min_size=8, max_size=8),
        parity=st.sampled_from(["even", "odd"]),
    )
    def test_sector_states_factorize(self, data, parity):
        lams = np.array([complex(data[2 * i], data[2 * i + 1]) for i in range(4)])
        norm = np.linalg.norm(lams)
        if norm < 1e-3:
            return
        lams = lams / norm
        vec, _ = pure_vector_from_coeffs(PureCoeffs(tuple(lams), parity))
        tangle = float(abs(cayley_hdet(amplitude_tensor(vec))))
        assert abs(tangle - 4 * np.prod(np.abs(lams))) <= 1e-10

    def test_rejects_mixed_state(self):
        with pytest.raises(StateValidationError):
            three_tangle(canonical_state("majorana_triple"))

    def test_rejects_nan_vector(self):
        with pytest.raises(StateValidationError, match="not normalized"):  # returned NaN
            three_tangle(np.full(8, np.nan))
        infinite = np.eye(8, dtype=complex) / 8
        infinite[0, 0] = np.inf  # its eigenvalues are NaN; the tangle was 0.0
        with pytest.raises(StateValidationError, match="not a pure-state density matrix"):
            three_tangle(FockOperator(ModeLayout.tripartite(), infinite))


def _tripartite_state(kind: str) -> FockOperator:
    if kind.startswith("pure"):
        return random_pure(ModeLayout.tripartite(), kind[5:], 31)
    sizes = tuple(int(c) for c in kind[6:])
    return random_density(ModeLayout.tripartite(*sizes), 32 + sum(sizes))


class TestTripartiteMeasures:
    def test_closed_form_values(self):
        w = canonical_state("w")
        ghz = canonical_state("ghz")
        assert abs(pi_abc(w) - (np.sqrt(5) - 1) / 9) <= 1e-12
        assert abs(pi_abc(ghz) - (4 * np.sqrt(2) - 5) / 4) <= 1e-12
        assert abs(pi_abc(ghz, "bosonic") - 0.25) <= 1e-12
        assert abs(n_abc(ghz) - 0.5) <= 1e-12

    def test_product_state_vanishes(self, rng):
        lay = ModeLayout.tripartite()
        rho = random_separable(
            lay, [SubsystemSpec((1,)), SubsystemSpec((2,)), SubsystemSpec((3,))], 2, rng
        )
        assert abs(n_abc(rho)) <= 1e-10
        assert abs(pi_abc(rho)) <= 1e-8

    def test_three_mode_one_vs_rest_closed_form(self, rng):
        for sector in ("even", "odd"):
            lams = rng.normal(size=4) + 1j * rng.normal(size=4)
            lams /= np.linalg.norm(lams)
            rho = canonical_state("three_mode_pure", lambdas=lams, parity=sector)
            closed = np.sqrt(
                (abs(lams[0]) ** 2 + abs(lams[2]) ** 2)
                * (abs(lams[1]) ** 2 + abs(lams[3]) ** 2)
            )
            assert abs(negativity(rho, S1) - closed) <= 1e-10

    def test_report_contents(self):
        report = tripartite_report(canonical_state("ghz"))
        assert set(report.entries) >= {
            "negativity_A", "negativity_B", "negativity_C",
            "j_abc", "n_abc", "pi_abc", "three_tangle",
        }
        mixed = tripartite_report(canonical_state("majorana_triple"))
        assert "three_tangle" not in mixed.entries

    @pytest.mark.parametrize("sizes", [(2, 1, 1), (1, 2, 2)])
    def test_pure_report_beyond_three_modes_has_no_tangle(self, sizes):
        rho = random_pure(ModeLayout.tripartite(*sizes), "even", 1)
        report = tripartite_report(rho)
        assert "three_tangle" not in report.entries
        assert report["n_abc"] == n_abc(rho)

    @pytest.mark.parametrize("flavor", ["fermionic", "bosonic"])
    @pytest.mark.parametrize("kind", ["pure_even", "pure_odd", "mixed_111", "mixed_211",
                                      "mixed_222"])
    def test_report_equals_the_public_measures(self, kind, flavor):
        rho = _tripartite_state(kind)
        report = tripartite_report(rho, flavor)
        negs = one_vs_rest_negativities(rho, flavor)
        assert [report[f"negativity_{lab}"] for lab in "ABC"] == [negs[lab] for lab in "ABC"]
        assert report["j_abc"] == j_abc(rho, flavor=flavor)
        assert report["n_abc"] == n_abc(rho, flavor)
        assert report["pi_abc"] == pi_abc(rho, flavor)
        if kind.startswith("pure"):
            assert report["three_tangle"] == three_tangle(rho)
        else:
            assert "three_tangle" not in report.entries

    @pytest.mark.parametrize("kind", ["pure_even", "mixed_111", "mixed_211"])
    def test_report_takes_eight_trace_norms(self, monkeypatch, kind):
        # one norm kernel call and one signed gather for each of the eight negativities
        log = record_calls(monkeypatch, "fneg.measures._pt_norms", "fneg.ptranspose._signed_gather")
        tripartite_report(_tripartite_state(kind))
        assert [name for name, _ in log] == ["_pt_norms", "_signed_gather"] * 8
        assert all(shape[0] == 1 for _, shape in log)  # stacks of one

    def test_report_peak_memory_stays_bounded(self):
        # One warm report at N = 8 traced a peak of 2.13 d x d matrices: the sector
        # projections are taken one at a time, each released before the next.
        import tracemalloc

        layout = ModeLayout.tripartite(3, 3, 2)
        tripartite_report(random_density(layout, 1))  # builds the cached tables
        rho = random_density(layout, 2)
        tracemalloc.start()
        try:
            tripartite_report(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 16 * layout.dim ** 2

    def test_repeat_report_is_served_from_the_memo(self, monkeypatch):
        # From five modes the report keeps its eight norms in rho._norms: the one-vs-rest
        # ones under negativity's keys, the five of reduced states also under the tolerance.
        layout = ModeLayout.tripartite(3, 3, 2)
        rho = random_density(layout, 3)
        first = tripartite_report(rho)
        fresh = tripartite_report(FockOperator(layout, rho.matrix))
        log = record_calls(monkeypatch, "fneg.measures._pt_norms")
        again = tripartite_report(rho)
        assert log == []
        assert again.entries == first.entries == fresh.entries  # bit for bit
        assert [negativity(rho, layout.spec(lab)) for lab in "ABC"] == [
            first[f"negativity_{lab}"] for lab in "ABC"]
        assert log == [] and len(rho._norms) == 8
        assert tripartite_report(rho, tol=1e-9).entries == first.entries
        assert len(log) == 8 and len(rho._norms) == 13  # another tolerance: solved again
        small = _tripartite_state("mixed_211")
        tripartite_report(small)
        assert small._norms == {}  # below five modes, as negativity

    def test_only_a_pure_report_diagonalizes(self, monkeypatch):
        mixed, pure = _tripartite_state("mixed_111"), _tripartite_state("pure_even")
        log = record_calls(monkeypatch, "eigh")
        tripartite_report(mixed)
        assert log == []
        tripartite_report(pure)
        assert log == [("eigh", (8, 8))]

    @pytest.mark.parametrize("eps", [1e-10, (1e-8 - 1e-12) / 1.75, (1e-8 + 1e-12) / 1.75, 1e-8,
                                     1e-6])
    def test_tangle_gate_is_the_classifier_purity_test(self, tmp_path, capsys, eps):
        # Tr rho^2 = 1 - 1.75 eps (+ 0.875 eps^2) and lambda_max = 1 - 0.875 eps: at
        # eps = 1e-8 only the eigenvalue passes 1e-8.  The report, pure3_class and the
        # routing of fneg classify follow one Tr rho^2 test, also 1e-12 from its bound.
        psi = _tripartite_state("pure_odd")
        rho = FockOperator(psi.layout, (1 - eps) * psi.matrix + eps * np.eye(8) / 8)
        pure = 1.75 * eps <= 1e-8
        assert _is_pure(rho) is pure
        report = tripartite_report(rho)
        if pure:
            assert abs(report["three_tangle"] - three_tangle(psi)) <= 1e-9
            assert pure3_class(rho).label == pure3_class(psi).label
        else:
            assert "three_tangle" not in report.entries
            with pytest.raises(StateValidationError, match="state is mixed"):
                pure3_class(rho)
        path = tmp_path / "state.json"
        matrix = [[z.real, z.imag] for z in rho.matrix.ravel()]
        path.write_text(json.dumps({"num_modes": 3, "matrix": matrix}))
        assert cli_main(["classify", str(path)]) == 0
        label = json.loads(capsys.readouterr().out)["label"]
        assert (label == pure3_class(psi).label) is pure  # else mixed3_classify's label

    def test_pairwise_negativity_matches_reduction(self):
        ghz = canonical_state("ghz")
        reduced = partial_trace(ghz, SubsystemSpec((1, 2)))
        assert abs(
            pairwise_negativity(ghz, "A", "B") - negativity(reduced, S1)
        ) <= 1e-12

    def test_multi_mode_party(self):
        # appending a vacuum mode to party A leaves every tripartite measure alone
        from fneg.fock import FockOperator, graded_tensor

        ghz = canonical_state("ghz")
        extra = FockOperator(ModeLayout(1, ("A",)), np.diag([1.0, 0.0]).astype(complex))
        padded = graded_tensor(ghz, extra)
        assert padded.layout.labels == ("A", "A", "B", "C")
        negs = {
            lab: negativity(padded, padded.layout.spec(lab)) for lab in "ABC"
        }
        assert abs(negs["A"] - 0.5) <= 1e-12
        assert abs(negs["B"] - 0.5) <= 1e-12
        assert abs(negs["C"] - 0.5) <= 1e-12
        assert abs(j_abc(padded) - 0.25) <= 1e-12
        assert abs(pi_abc(padded) - pi_abc(ghz)) <= 1e-12

    def test_relabeling_invariance(self, rng):
        # negativity is insensitive to which physical mode carries which label
        from fneg.fock import permute_modes

        lay = ModeLayout.bipartite(1, 2)
        rho = random_density(lay, rng)
        swapped = permute_modes(rho, (2, 3, 1), labels=("A", "A", "B"))
        assert abs(
            negativity(rho, lay.spec("A"))
            - negativity(swapped, swapped.layout.spec("B"))
        ) <= 1e-12


def _tripartite_stack(sizes, seed: int) -> list[FockOperator]:
    """Pure states of both parities and mixed states on one tripartite layout."""
    rng = np.random.default_rng(seed)
    layout = ModeLayout.tripartite(*sizes)
    return [random_pure(layout, "even", rng), random_density(layout, rng),
            random_pure(layout, "odd", rng), random_density(layout, rng)]


def _empty_c_odd(seed: int) -> FockOperator:
    """A mixed state with mode C empty: its odd C-parity sector has weight 0."""
    ab = random_density(ModeLayout.bipartite(1, 1), seed).matrix
    return FockOperator(ModeLayout.tripartite(), np.kron(np.diag([1.0, 0.0]), ab))


class TestStackedTripartite:
    @pytest.mark.parametrize("flavor", ["fermionic", "bosonic"])
    @pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 2, 2)])
    def test_each_member_equals_tripartite_report(self, sizes, flavor):
        rhos = _tripartite_stack(sizes, sum(sizes))
        found = _tripartite_reports(rhos, flavor)
        for rho, report in zip(rhos, found):
            want = tripartite_report(rho, flavor)
            assert report.entries == want.entries  # bit for bit, tangle of pure states included
            assert (report.tolerance, report.transpose_flavor) == (1e-10, flavor)

    @pytest.mark.parametrize("flavor", ["fermionic", "bosonic"])
    def test_an_empty_sector_is_zero_as_per_call(self, flavor):
        # one member with an empty odd sector, one without, then a stack of empty ones
        empty, full = _empty_c_odd(5), _tripartite_stack((1, 1, 1), 6)[1]
        assert j_abc_details(empty, flavor=flavor).degenerate_sector
        assert not j_abc_details(full, flavor=flavor).degenerate_sector
        for rhos in ([empty, full], [empty, _empty_c_odd(7)]):
            found = _tripartite_reports(rhos, flavor)
            assert [r.entries for r in found] == [tripartite_report(r, flavor).entries
                                                  for r in rhos]

    def test_a_failing_member_fails_the_stack(self):
        # the stack raises what a loop of tripartite_report raises
        rhos = _tripartite_stack((1, 1, 1), 8)
        odd = rhos[1].matrix.copy()
        odd[0, 1] = odd[1, 0] = 1e-6  # couples the even |000> to the odd |100>
        stack = np.stack([rhos[0].matrix, odd])
        cases = [(stack, rhos[0].layout, "fermionic"),
                 (stack[:1], ModeLayout(3, ("A", "B", "B")), "fermionic"),
                 (stack[:1], rhos[0].layout, "other")]
        for value in (np.nan, np.inf):  # no stage past the first check warns
            bad = stack.copy()
            bad[1, 2, 2] = value
            cases.append((bad, rhos[0].layout, "bosonic"))
        for states, layout, flavor in cases:
            ops = [FockOperator(layout, m) for m in states]
            want = outcome(lambda: [tripartite_report(op, flavor) for op in ops])
            assert isinstance(want, tuple)
            assert outcome(lambda: _tripartite_norms(states, layout, flavor)) == want
        with pytest.raises(ParityError):
            _tripartite_reports([rhos[0], FockOperator(rhos[0].layout, odd)])

    @pytest.mark.parametrize("family,flavor,options,output", [
        ("psi_p", "fermionic", ["--steps", "99"], "csv"),
        ("psi_p", "bosonic", ["--steps", "99", "--normalized"], "csv"),
        ("werner", "fermionic", [], "csv"),
        ("werner", "bosonic", [], "json"),
    ], ids=["psi_p", "psi_p_bosonic", "werner", "werner_bosonic"])
    def test_sweep_equals_the_public_measures(self, capsys, family, flavor, options, output):
        # every row of the stacked sweep, bit for bit, from one public call per measure
        from click.testing import CliRunner

        from fneg.cli import _emit_rows, cli

        args = ["--output", output, "sweep", family, "--flavor", flavor, *options]
        found = CliRunner().invoke(cli, args, catch_exceptions=False)
        grid = np.linspace(0.0, 1.0, 99 if "--steps" in options else 101)
        rhos = [canonical_state(family, p=float(p)) for p in grid]
        if family == "werner":
            columns = ["p", "negativity", "log_negativity"]
            rows = [{"p": float(p), "negativity": negativity(rho, S1, flavor),
                     "log_negativity": log_negativity(rho, S1, flavor)}
                    for p, rho in zip(grid, rhos)]
        else:
            def measures(rho):
                return {"j_abc": j_abc(rho, flavor=flavor), "three_tangle": three_tangle(rho),
                        "n_abc": n_abc(rho, flavor), "pi_abc": pi_abc(rho, flavor)}

            ghz = measures(canonical_state("ghz"))
            scale = ghz if "--normalized" in options else dict.fromkeys(ghz, 1.0)
            columns = ["p", *ghz, "label"]
            rows = [{"p": float(p), **{m: v / scale[m] for m, v in measures(rho).items()},
                     "label": pure3_class(rho).label} for p, rho in zip(grid, rhos)]
        _emit_rows(rows, columns, output)
        assert (found.exit_code, found.output) == (0, capsys.readouterr().out)


def _precedence_members(sizes) -> tuple:
    """A valid state and states that fail one check each, on a tripartite layout of ``sizes``."""
    rng = np.random.default_rng(40 + sum(sizes))
    layout = ModeLayout.tripartite(*sizes)
    rho = random_density(layout, rng).matrix
    pure = random_pure(layout, "even", rng).matrix
    valid = 0.5 * rho + 0.5 * np.eye(layout.dim) / layout.dim  # eigenvalues above 1/(2d)
    hermiticity, mixing = valid.copy(), valid.copy()
    hermiticity[0, 3] += 1e-3  # |0..0> and |110..0> are both even
    mixing[0, 1] += 1e-3  # couples the even |0..0> to the odd |10..0>
    mixing[1, 0] += 1e-3
    members = {"valid": valid, "psd": 2.0 * rho - pure, "hermiticity": hermiticity,
               "parity": mixing}
    for kind, m in members.items():  # each fails the check it is named after, and no other
        op = FockOperator(layout, m)
        assert (op.is_hermitian() and op.is_unit_trace()) == (kind != "hermiticity")
        assert op.is_parity_even() == (kind != "parity")
        assert kind == "hermiticity" or op._is_psd(FLAG_TOL) == (kind != "psd")
    return layout, members


#: Stacks whose members fail checks in different orders, by member kind, with
#: the target of the bipartite kernel and whether the tripartite layout is proper.
_PRECEDENCE = {
    "psd_then_hermiticity": (("psd", "hermiticity"), (1,), True),
    "valid_then_parity": (("valid", "parity"), (1,), True),
    "improper_target_then_invalid": (("valid", "hermiticity"), None, False),
    "invalid_then_improper_target": (("psd", "valid"), None, False),
    "parity_mixing_valid": (("parity", "valid"), (1,), True),
}


@pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 2, 1)])
@pytest.mark.parametrize("flavor", ["fermionic", "bosonic"])
@pytest.mark.parametrize("case", list(_PRECEDENCE))
class TestStackErrorPrecedence:
    """A stack raises the type and message a loop of per-call calls raises, or returns its values.

    A rule that hands only the first member with a False verdict to the per-call
    check fails ``psd_then_hermiticity``: the failed Hermiticity test of the
    second member skips the PSD verdict of the first.
    """

    def test_stacked_pt_norms(self, sizes, flavor, case):
        layout, members = _precedence_members(sizes)
        kinds, target, _ = _PRECEDENCE[case]
        spec = SubsystemSpec(target or tuple(range(1, layout.num_modes + 1)))
        rhos = [FockOperator(layout, members[kind]) for kind in kinds]
        want = outcome(lambda: [_pt_norm(rho, spec, flavor, FLAG_TOL) for rho in rhos])
        assert outcome(lambda: _stacked_pt_norms(rhos, spec, flavor)) == want
        if target is None and flavor == "fermionic":
            assert want[0] is (LayoutError if kinds[0] == "valid" else StateValidationError)

    def test_tripartite_norms(self, sizes, flavor, case):
        layout, members = _precedence_members(sizes)
        kinds, _, proper = _PRECEDENCE[case]
        if not proper:
            layout = ModeLayout(layout.num_modes, ("A",) + ("B",) * (layout.num_modes - 1))
        stack = np.stack([members[kind] for kind in kinds])
        want = outcome(lambda: [tripartite_report(FockOperator(layout, m), flavor)
                                 for m in stack])
        assert isinstance(want, tuple)  # every case raises, the bosonic parity one included
        assert outcome(lambda: _tripartite_norms(stack, layout, flavor)) == want


def _pure_vector(n: int, parity: str, seed: int) -> np.ndarray:
    """A random unit vector on the ``parity`` sector of ``n`` modes."""
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    odd = np.array([bin(i).count("1") % 2 for i in range(1 << n)], dtype=bool)
    vec[odd != (parity == "odd")] = 0.0
    return vec / np.linalg.norm(vec)


def _schmidt_trace_norm(vec: np.ndarray, n: int, targets) -> float:
    """``|rho^{T_A}|_1 = (sum_k s_k)^2`` of a pure state of definite parity.

    ``s_k`` are the Schmidt coefficients after the targets are moved to the
    front: the amplitude of ``|n_1 .. n_N>`` takes the sign ``(-1)**k``, with
    ``k`` the inversions of the move, the pairs of occupied modes ``b < a``
    with ``a`` a target and ``b`` not (Shapourian, Shiozaki & Ryu 2017).
    """
    rest = [m for m in range(1, n + 1) if m not in targets]
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1  # bits[i, j - 1] = n_j
    inversions = sum(bits[:, b - 1] * bits[:, a - 1] for a in targets for b in rest if b < a)
    row = sum(bits[:, a - 1] << k for k, a in enumerate(targets))
    col = sum(bits[:, b - 1] << k for k, b in enumerate(rest))
    amplitudes = np.zeros((1 << len(targets), 1 << len(rest)), dtype=complex)
    amplitudes[row, col] = (-1.0) ** inversions * vec
    return float(np.linalg.svd(amplitudes, compute_uv=False).sum() ** 2)


class TestDenseSvdOracle:
    """Every norm against the dense SVD of the plain transpose, at N = 1..8.

    The twin's column sign, the parity blocks and ``|eigvalsh|`` must leave the
    singular values of ``rho^{T_A}`` as they are: mixed and rank-deficient pure
    states, both flavors, leading and interleaved targets.
    """

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_norm_matches_the_dense_svd(self, n):
        layout = ModeLayout(n, ("A",) * n)
        states = [random_density(layout, 500 + n), random_pure(layout, "even", 600 + n),
                  random_pure(layout, "odd", 700 + n)]
        cuts = [((1,), "bosonic")] if n == 1 else [  # N = 1 has no proper target
            (target, flavor) for target in (tuple(range(1, n // 2 + 1)), tuple(range(1, n + 1, 2)))
            for flavor in ("fermionic", "bosonic")]
        for target, flavor in cuts:
            spec = SubsystemSpec(target)
            transpose = fermionic_pt if flavor == "fermionic" else bosonic_pt
            stacked = _stacked_pt_norms(states, spec, flavor)
            for rho, norm in zip(states, stacked):
                t = transpose(rho, spec)
                want = np.linalg.svd(t.matrix, compute_uv=False).sum()
                per_call = _pt_norm(FockOperator(layout, rho.matrix), spec, flavor, FLAG_TOL)
                for found in (per_call, norm, trace_norm(t)):
                    assert abs(found - want) <= 1e-14 * want, (target, flavor, found, want)
                assert norm == per_call  # bit for bit


class TestPureStateOracle:
    """Norms of pure states against their Schmidt coefficients, an independent oracle.

    The reorder signs count inversions here, apart from the code's Jordan-Wigner
    tables: a transpose that drops them fails on every non-leading target.
    """

    @staticmethod
    def _close(negativity_found: float, norm: float) -> bool:
        return abs(2.0 * negativity_found + 1.0 - norm) <= 1e-12 * norm

    @pytest.mark.parametrize("n", range(2, 11))
    def test_negativity(self, n):
        layout = ModeLayout(n, ("A",) * n)
        targets = {tuple(range(1, n // 2 + 1)), tuple(range(1, n + 1, 2))}  # leading, interleaved
        for parity in ("even", "odd"):
            vec = _pure_vector(n, parity, 100 * n + len(parity))
            rho = FockOperator(layout, np.outer(vec, vec.conj()), copy=False)
            for target in targets:
                norm = _schmidt_trace_norm(vec, n, target)
                assert self._close(negativity(rho, SubsystemSpec(target)), norm), (parity, target)

    @pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 2, 2), (4, 3, 3)])
    def test_tripartite_report(self, sizes):
        layout = ModeLayout.tripartite(*sizes)
        n = layout.num_modes
        for parity in ("even", "odd"):
            vec = _pure_vector(n, parity, 7 * n + len(parity))
            report = tripartite_report(FockOperator(layout, np.outer(vec, vec.conj()), copy=False))
            for lab in "ABC":
                norm = _schmidt_trace_norm(vec, n, layout.spec(lab).target_modes)
                assert self._close(report[f"negativity_{lab}"], norm), (parity, lab)
